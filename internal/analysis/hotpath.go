package analysis

import (
	"go/ast"
	"go/types"
)

// hotPath flags allocation sources inside functions marked
// //vw:hotpath — the per-frame code (recompute, rake integration,
// wire encode) whose allocs/frame budget the steady-frame alloc
// tests guard. The analyzer catches the cause before they catch the
// symptom. Five things are flagged:
//
//   - make and new
//   - append that grows a function-local slice (appending into a
//     recycled struct-field buffer or a caller-provided slice
//     parameter is the idiom and stays legal, as does the x[:0] reset)
//   - any fmt call (Sprintf and friends allocate; errors belong on
//     cold paths, annotated //vw:allow hotpath)
//   - interface boxing: a concrete value passed where an interface is
//     expected, or converted to an interface type
//   - closure captures: a func literal that references enclosing
//     variables allocates both closure and captured variables
//
// Amortized growth sites (the one make that reallocs a recycled
// buffer when capacity is finally exceeded) carry //vw:allow hotpath
// line annotations.
var hotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag make/append-growth/fmt/interface-boxing/closure-captures in //vw:hotpath functions",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	for _, fn := range pass.Directives.hotpathFuncs() {
		checkHotFunc(pass, fn)
	}
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Info
	body := fn.Body

	// localObj reports whether an identifier's object is declared
	// inside fn's body (as opposed to a parameter, receiver, field
	// base, or package-level variable).
	localObj := func(id *ast.Ident) bool {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		return v.Pos() >= body.Pos() && v.Pos() < body.End()
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capturesEnclosing(info, n) {
				pass.reportf(n.Pos(), "closure captures enclosing variables in hot path (allocates); hoist it or pass state explicitly")
			} else {
				// Non-capturing literals (e.g. sort comparators) are
				// hoisted by the compiler; still scan their bodies.
				return true
			}
			return true
		case *ast.CallExpr:
			checkHotCall(pass, n, localObj)
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr, localObj func(*ast.Ident) bool) {
	info := pass.Info

	// Interface conversions spelled as T(x) with T an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at, ok := info.Types[call.Args[0]]; ok && boxes(at.Type, tv.Type) {
				pass.reportf(call.Pos(), "conversion to interface %s boxes a %s in hot path", tv.Type, at.Type)
			}
		}
		return
	}

	switch obj := useOf(info, call.Fun).(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make":
			pass.reportf(call.Pos(), "make allocates in hot path; use a recycled buffer")
		case "new":
			pass.reportf(call.Pos(), "new allocates in hot path; use a recycled buffer")
		case "append":
			if len(call.Args) == 0 {
				return
			}
			dst := ast.Unparen(call.Args[0])
			// x[:0] and x[a:b] resets reuse backing storage.
			if sl, ok := dst.(*ast.SliceExpr); ok {
				dst = sl.X
			}
			if id, ok := dst.(*ast.Ident); ok && localObj(id) {
				pass.reportf(call.Pos(), "append grows function-local slice %s in hot path; append into a recycled buffer or caller-provided slice", id.Name)
			}
		}
		return
	case *types.Func:
		if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "fmt" {
			pass.reportf(call.Pos(), "fmt.%s allocates in hot path; move formatting to a cold path", obj.Name())
			return
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok {
			return
		}
		checkBoxing(pass, call, sig)
	}
}

// checkBoxing flags concrete values passed to interface parameters.
func checkBoxing(pass *Pass, call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := pass.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.Value != nil {
			continue // constants are materialized at compile time
		}
		if boxes(at.Type, pt) {
			pass.reportf(arg.Pos(), "passing %s to interface parameter boxes it in hot path", at.Type)
		}
	}
}

// boxes reports whether passing a value of concrete type at where
// iface is expected heap-allocates. Pointer-shaped values (pointers,
// maps, channels, funcs, unsafe pointers) fit in the interface word;
// nil and existing interfaces do not box.
func boxes(at, iface types.Type) bool {
	if at == nil || types.IsInterface(at) {
		return false
	}
	switch u := at.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		switch u.Kind() {
		case types.UntypedNil, types.UntypedBool, types.UntypedRune, types.UntypedInt:
			// Untyped constants are materialized at compile time into
			// read-only data; small ones do not allocate per call.
			return false
		}
		if u.Info()&types.IsString != 0 || u.Info()&types.IsFloat != 0 || u.Info()&types.IsComplex != 0 {
			return true
		}
		return true
	}
	_ = iface
	return true
}

// capturesEnclosing reports whether lit references any variable
// declared outside the literal but inside some enclosing function —
// i.e. whether the closure has captures that force an allocation.
func capturesEnclosing(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captured = true
		}
		return true
	})
	return captured
}
