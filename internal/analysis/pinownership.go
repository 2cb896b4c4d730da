package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PinOwnership enforces the live ring's pin-barrier protocol
// (store.Ring). The ring recycles timestep buffers as the producer
// advances; a step a consumer is still reading must be pinned, and
// every Pin must be balanced or the barrier leaks and eviction stalls
// forever. A scope that calls Ring.Pin must, on some later path, either
//
//   - call Ring.Unpin on the same receiver (directly or deferred), or
//   - store the pinned step into a struct field — the ownership
//     handoff idiom (s.livePinned = step), where another method
//     unpins on the next round or at shutdown.
//
// Conversely, Ring.LoadStep hands back a buffer the ring may recycle
// mid-use, so a scope calling it must hold a pin: a Ring.Pin on the
// same receiver earlier in the scope. The ring's own methods are
// exempt — they are the implementation under the lock.
var PinOwnership = &Analyzer{
	Name: "pinownership",
	Doc:  "Ring.Pin must pair with Unpin or a field handoff; Ring.LoadStep requires a pin in scope",
	Run:  runPinOwnership,
}

func runPinOwnership(pass *Pass) {
	for _, file := range pass.Files {
		for _, sc := range funcScopes(file) {
			runPinScope(pass, sc)
		}
	}
}

// A ringCall is one Pin/Unpin/LoadStep call site in a scope.
type ringCall struct {
	pos      token.Pos
	recv     string // receiver path, e.g. "s.liveRing"
	deferred bool
	arg      types.Object // Pin's step argument root, if an identifier
}

func runPinScope(pass *Pass, sc funcScope) {
	// Methods on the Ring itself are the protocol implementation.
	if sc.Decl != nil && sc.Decl.Recv != nil && len(sc.Decl.Recv.List) > 0 {
		if named := namedType(pass.Info.Types[sc.Decl.Recv.List[0].Type].Type); named != nil && named.Obj().Name() == "Ring" {
			return
		}
	}

	var pins, unpins, loads []ringCall
	var fieldStores []types.Object // objects whose value escaped into a struct field

	record := func(call *ast.CallExpr, deferred bool) {
		method, recv, ok := ringMethod(pass, call)
		if !ok {
			return
		}
		rc := ringCall{pos: call.Pos(), recv: recv, deferred: deferred}
		switch method {
		case "Pin":
			if len(call.Args) == 1 {
				if id := rootIdent(call.Args[0]); id != nil {
					rc.arg = pass.Info.Uses[id]
				}
			}
			pins = append(pins, rc)
		case "Unpin":
			unpins = append(unpins, rc)
		case "LoadStep":
			loads = append(loads, rc)
		}
	}

	inspectScope(sc.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			record(n.Call, true)
			// A deferred closure body runs at scope exit: Unpins
			// inside it balance the scope's pins.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						record(c, true)
					}
					return true
				})
			}
		case *ast.CallExpr:
			record(n, false)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if _, ok := lhs.(*ast.SelectorExpr); !ok {
					continue
				}
				if i < len(n.Rhs) {
					if id := rootIdent(n.Rhs[i]); id != nil {
						if obj := pass.Info.Uses[id]; obj != nil {
							fieldStores = append(fieldStores, obj)
						}
					}
				}
			}
		}
		return true
	})

	for _, pin := range pins {
		ok := false
		for _, un := range unpins {
			if un.recv == pin.recv && (un.deferred || un.pos > pin.pos) {
				ok = true
			}
		}
		if !ok && pin.arg != nil {
			for _, st := range fieldStores {
				if st == pin.arg {
					ok = true // ownership handed to a struct field
				}
			}
		}
		if !ok {
			pass.Reportf(pin.pos,
				"Ring.Pin on %s has no matching Unpin or field handoff in this scope; a leaked pin blocks ring recycling forever", pin.recv)
		}
	}
	for _, ld := range loads {
		ok := false
		for _, pin := range pins {
			if pin.recv == ld.recv && pin.pos < ld.pos {
				ok = true
			}
		}
		if !ok {
			pass.Reportf(ld.pos,
				"Ring.LoadStep on %s without a Ring.Pin earlier in this scope; the ring may recycle the step mid-use", ld.recv)
		}
	}
}

// ringMethod matches a call to a method named Pin/Unpin/LoadStep on a
// receiver whose named type is Ring (matching by type name keeps the
// analyzer usable from fixtures and the vet driver without importing
// the store package). It returns the method name and the receiver's
// textual path.
func ringMethod(pass *Pass, call *ast.CallExpr) (method, recv string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", false
	}
	name := fn.Name()
	if name != "Pin" && name != "Unpin" && name != "LoadStep" {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	named := namedType(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Ring" {
		return "", "", false
	}
	path, okPath := pathString(sel.X)
	if !okPath {
		return "", "", false
	}
	return name, path, true
}

// namedType peels pointers off t and returns the named type, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
