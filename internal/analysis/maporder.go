package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mapOrder forbids map iteration whose body feeds byte-deterministic
// output in //vw:deterministic or //vw:wire packages. Go randomizes
// map iteration order per run, so a `for k := range m` that appends
// to a slice bound for an encoder, concatenates into a string, or
// writes through a Buffer/Builder/Writer produces different bytes on
// every process — the exact failure mode that would desync the v2
// shadow, the relay round cache, and the golden corpus.
//
// Order-insensitive bodies stay legal: delete-only sweeps, numeric
// accumulation (+= on non-strings), min/max reductions, and per-key
// map updates have commutative effects. A slice that is sorted after
// the loop in the same function is also legal — collect-then-sort is
// the idiomatic fix.
var mapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid map-iteration order leaking into slices, strings, or writers in deterministic/wire-facing packages",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	if !pass.Class.Deterministic && !pass.Class.WireFacing {
		return
	}
	for _, file := range pass.Files {
		for _, sc := range funcScopes(file) {
			runMapOrderScope(pass, sc)
		}
	}
}

// A mapOrderSink is one order-sensitive effect inside a map-range
// body: where it happened, what it wrote to, and the object it
// accumulated into (nil for writer calls, which a later sort cannot
// repair).
type mapOrderSink struct {
	pos  token.Pos
	what string
	obj  types.Object
}

func runMapOrderScope(pass *Pass, sc funcScope) {
	// Range statements over maps directly in this scope; nested
	// function literals are their own scopes.
	inspectScope(sc.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, sink := range mapOrderSinks(pass, rng) {
			if sink.obj != nil && sortedAfter(pass, sc, rng, sink.obj) {
				continue
			}
			pass.reportf(sink.pos,
				"map iteration order leaks into %s; iterate sorted keys or sort the result before it reaches any byte-deterministic path", sink.what)
		}
		return true
	})
}

// mapOrderSinks collects the order-sensitive effects in a map-range
// body. Function literals inside the body are included: they
// typically run per iteration (passed to helpers) and inherit the
// iteration order either way.
func mapOrderSinks(pass *Pass, rng *ast.RangeStmt) []mapOrderSink {
	var sinks []mapOrderSink
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// s += ... on a string accumulates in iteration order.
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if t, ok := pass.Info.Types[n.Lhs[0]]; ok {
					if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if obj := declaredOutside(pass, n.Lhs[0], rng); obj != nil {
							sinks = append(sinks, mapOrderSink{n.Pos(), "string " + obj.Name(), obj})
						}
					}
				}
			}
		case *ast.CallExpr:
			obj := useOf(pass.Info, n.Fun)
			switch fn := obj.(type) {
			case *types.Builtin:
				// append to a slice declared outside the loop: the
				// element order is the iteration order.
				if fn.Name() == "append" && len(n.Args) > 0 {
					if obj := declaredOutside(pass, n.Args[0], rng); obj != nil {
						sinks = append(sinks, mapOrderSink{n.Pos(), "slice " + obj.Name(), obj})
					}
				}
			case *types.Func:
				name := fn.Name()
				sig, _ := fn.Type().(*types.Signature)
				isMethod := sig != nil && sig.Recv() != nil
				switch {
				case isMethod && (name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune"):
					// Writer accumulation (bytes.Buffer,
					// strings.Builder, io.Writer): bytes land in
					// iteration order and no later sort can fix them.
					sinks = append(sinks, mapOrderSink{n.Pos(), "a writer via " + name, nil})
				case !isMethod && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					(name == "Fprint" || name == "Fprintf" || name == "Fprintln"):
					sinks = append(sinks, mapOrderSink{n.Pos(), "a writer via fmt." + name, nil})
				}
			}
		}
		return true
	})
	return sinks
}

// declaredOutside returns the object at the root of e when it is a
// variable declared outside the range statement — an accumulator that
// outlives the loop. Loop-local accumulators (including the range key
// and value variables themselves) are per-iteration state whose order
// cannot escape.
func declaredOutside(pass *Pass, e ast.Expr, rng *ast.RangeStmt) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if v, ok := obj.(*types.Var); ok && !v.IsField() {
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			return nil
		}
	}
	return obj
}

// sortedAfter reports whether obj (or a reslice alias of it) is
// passed to a sort.*/slices.Sort* call after the range statement
// within the same function scope — the collect-then-sort idiom that
// restores determinism. Aliases cover the recycled-buffer form the
// frame pipeline uses everywhere:
//
//	for k, v := range m { dst = append(dst, ...) }
//	out := dst[base:]
//	slices.SortFunc(out, ...)
func sortedAfter(pass *Pass, sc funcScope, rng *ast.RangeStmt, obj types.Object) bool {
	// Objects whose sorting counts as sorting the sink: the sink
	// itself plus anything assigned from a slice of it after the loop.
	sorted := map[types.Object]bool{obj: true}
	inspectScope(sc.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() < rng.End() {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			src := rootIdent(as.Rhs[i])
			if src == nil || !sorted[pass.Info.Uses[src]] {
				continue
			}
			if def := pass.Info.Defs[id]; def != nil {
				sorted[def] = true
			} else if use := pass.Info.Uses[id]; use != nil {
				sorted[use] = true
			}
		}
		return true
	})

	found := false
	inspectScope(sc.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn, ok := useOf(pass.Info, call.Fun).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			// Direct argument, or wrapped in one conversion layer
			// (sort.Sort(byName(x))).
			if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
				arg = conv.Args[0]
			}
			if id := rootIdent(arg); id != nil && sorted[pass.Info.Uses[id]] {
				found = true
			}
		}
		return true
	})
	return found
}
