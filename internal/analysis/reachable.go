package analysis

import (
	"go/types"
	"strings"
)

// Unreachable is the reachability pass: every exported func, method,
// type, const and var declared in a package at or below the import
// path under must be used by the non-test code of some other package
// in pkgs — a product caller. A type is used when another package
// names it, selects one of its fields or methods, or uses a func,
// method, field or var whose type mentions it, or when it is the type
// of an exported field of a used type: a caller then holds values of
// it. Two kinds are exempt: a method that implements an interface
// declared in, imported by or spelled out in pkgs (a caller may reach
// it through the interface), and a declaration marked //vw:testonly,
// which in turn must have no product caller. pkgs must be the whole
// program: a caller in a package left out is a caller missed.
func Unreachable(pkgs []*Package, under string) []Diagnostic {
	used := make(map[types.Object]bool)  // by another package
	local := make(map[types.Object]bool) // by its own
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	addIfaces := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !generic(tn.Type()) {
				ifaces = append(ifaces, it)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range pkgs {
		// Interfaces spelled out in place: a parameter's, an assertion's.
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
		for _, obj := range p.Info.Uses {
			if obj.Pkg() != p.Types {
				used[origin(obj)] = true
			} else {
				local[origin(obj)] = true
			}
		}
		for _, sel := range p.Info.Selections {
			if obj := sel.Obj(); obj.Pkg() != nil && obj.Pkg() != p.Types {
				if n := namedOf(sel.Recv()); n != nil {
					used[n.Origin().Obj()] = true
				}
			}
		}
		addIfaces(p.Types)
		for _, imp := range p.Types.Imports() {
			addIfaces(imp)
		}
	}
	// The types a use mentions are used too; those mentioned adds
	// during the range it has already walked.
	seenTypes := make(map[types.Type]bool)
	for obj := range used {
		mentioned(obj.Type(), used, seenTypes)
	}

	var out []Diagnostic
	report := func(p *Package, obj types.Object, what string) {
		testonly := p.Directives.testonly[obj.Pos()]
		var msg string
		switch {
		case testonly && used[obj]:
			msg = what + " is marked //vw:testonly but another package's non-test code uses it"
		case !testonly && !used[obj] && local[obj]:
			msg = what + " is used only inside its own package"
		case !testonly && !used[obj]:
			msg = what + " has no product caller"
		default:
			return
		}
		out = append(out, Diagnostic{Pos: obj.Pos(), Position: p.Fset.Position(obj.Pos()), Message: msg, Analyzer: "reachable"})
	}
	for _, p := range pkgs {
		if path := p.Types.Path(); path != under && !strings.HasPrefix(path, under+"/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(p, obj, kind(obj)+" "+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() && !implements(named, m.Name(), ifaces) {
					report(p, m, "method "+name+"."+m.Name())
				}
			}
		}
	}
	sortDiagnostics(out)
	return out
}

func kind(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// origin is the declared object behind an instantiated generic one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// namedOf is the named type a selection's receiver is, through one
// pointer.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// mentioned marks every named type t is built from, through pointers,
// containers and signatures, and through the exported fields of a
// named struct type.
func mentioned(t types.Type, used map[types.Object]bool, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		used[t.Origin().Obj()] = true
		for i := range t.TypeArgs().Len() {
			mentioned(t.TypeArgs().At(i), used, seen)
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if f := st.Field(i); f.Exported() {
					mentioned(f.Type(), used, seen)
				}
			}
		}
	case *types.Pointer:
		mentioned(t.Elem(), used, seen)
	case *types.Slice:
		mentioned(t.Elem(), used, seen)
	case *types.Array:
		mentioned(t.Elem(), used, seen)
	case *types.Map:
		mentioned(t.Key(), used, seen)
		mentioned(t.Elem(), used, seen)
	case *types.Chan:
		mentioned(t.Elem(), used, seen)
	case *types.Signature:
		mentioned(t.Params(), used, seen)
		mentioned(t.Results(), used, seen)
	case *types.Tuple:
		for i := range t.Len() {
			mentioned(t.At(i).Type(), used, seen)
		}
	case *types.Struct:
		for i := range t.NumFields() {
			mentioned(t.Field(i).Type(), used, seen)
		}
	}
}

func generic(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// implements reports whether method name of t is one that t or *t
// needs to satisfy one of ifaces.
func implements(t *types.Named, name string, ifaces []*types.Interface) bool {
	if generic(t) {
		return false
	}
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == name &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
