package analysis

import (
	"go/ast"
	"go/types"
)

// pathString renders a pure identifier/selector chain ("s", "c.mu",
// "w.rig.glove") for textual owner matching. It reports false for
// anything with calls, indexing, or other computation in the chain —
// those are handled conservatively by the callers.
func pathString(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.ParenExpr:
		return pathString(e.X)
	case *ast.SelectorExpr:
		base, ok := pathString(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// unconvert peels type conversions off e — (*Server)(v) is v — so a
// method called through a conversion is checked against the converted
// value's own path.
func unconvert(info *types.Info, e ast.Expr) ast.Expr {
	for {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || !info.Types[call.Fun].IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// useOf resolves the object an identifier or a selector names, through
// parens: for a call's Fun, a *types.Func for ordinary calls and
// methods, a *types.Builtin for builtins, and nil for indirect calls
// through function values.
func useOf(info *types.Info, n ast.Node) types.Object {
	switch e := n.(type) {
	case *ast.ParenExpr:
		return useOf(info, e.X)
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// rootIdent peels selectors, indexing, slicing, dereferences, and
// parens off an lvalue-ish expression and returns the base
// identifier, or nil when the base is not a plain identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// A funcScope is one analysis scope: a function declaration's body or
// a function literal's body. Scope-local analyses (lock tracking,
// reply ownership) treat nested literals as separate scopes because
// they may run at another time, on another goroutine.
type funcScope struct {
	Decl *ast.FuncDecl // nil for a FuncLit scope
	Lit  *ast.FuncLit  // nil for a FuncDecl scope
	Body *ast.BlockStmt
}

// funcScopes lists every function scope in the file, outermost first.
func funcScopes(file *ast.File) []funcScope {
	var out []funcScope
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, funcScope{Decl: n, Body: n.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcScope{Lit: n, Body: n.Body})
		}
		return true
	})
	return out
}

// inspectScope walks body without descending into nested function
// literals, so scope-local state is not confused by deferred or
// concurrent code.
func inspectScope(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// recvName returns the name of a method's receiver variable, or ""
// for functions, unnamed receivers, and blank receivers.
func recvName(fn *ast.FuncDecl) string {
	if fn == nil || fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	names := fn.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return ""
	}
	return names[0].Name
}
