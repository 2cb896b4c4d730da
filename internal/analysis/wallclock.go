package analysis

import (
	"go/ast"
	"go/types"
)

// wallclock forbids direct wall-clock and global-RNG use in packages
// marked //vw:deterministic. The frame pipeline's byte-identity
// guarantee (same inputs → same frame bytes) and the netsim-based
// chaos suites both depend on time flowing only through the injected
// netsim.Clock and randomness only through seeded *rand.Rand values;
// one stray time.Now or rand.Float64 breaks replayability in ways no
// unit test reliably catches.
//
// Sites that genuinely need wall time — observability stage timers,
// net.Conn deadlines, the real Clock implementation itself — carry
// //vw:allow wallclock annotations.
var wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Sleep/After and global math/rand in //vw:deterministic packages",
	Run:  runWallclock,
}

// wallclockTimeFuncs are the package-level time functions that read
// or wait on the wall clock. Methods (t.Sub, t.Add) and pure
// constructors (time.Duration, time.Unix) stay legal.
var wallclockTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Since":     true,
	"Until":     true,
}

// wallclockRandExempt lists the math/rand package-level functions
// that do not touch the global source; everything else at package
// level does.
var wallclockRandExempt = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runWallclock(pass *Pass) {
	if !pass.Class.Deterministic {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := useOf(pass.Info, call.Fun).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				// One escape hatch must be caught before the method
				// exemption: calling any wall-clock method (Now, After,
				// Sleep, NewTicker, ...) directly on the package-level
				// RealClock var (netsim's real implementation) is a
				// method call syntactically, but it reads the wall
				// clock while dodging injection.
				if wallclockTimeFuncs[fn.Name()] && isRealClockVar(pass.Info, call) {
					pass.reportf(call.Pos(),
						"%s on RealClock bypasses clock injection in a deterministic package; accept a netsim.Clock instead", fn.Name())
				}
				return true // methods on time.Time etc. are pure
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallclockTimeFuncs[fn.Name()] {
					pass.reportf(call.Pos(),
						"time.%s reads the wall clock in a deterministic package; use the injected netsim.Clock", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !wallclockRandExempt[fn.Name()] {
					pass.reportf(call.Pos(),
						"global %s.%s is nondeterministic; use a seeded *rand.Rand", pathBase(fn.Pkg().Path()), fn.Name())
				}
			}
			return true
		})
	}
}

// isRealClockVar reports whether the method call's receiver expression
// resolves to a package-level variable named "RealClock" — either
// qualified (netsim.RealClock.Now()) or in scope directly
// (RealClock.Now()). Locals and struct fields that happen to share the
// name are injection points, not the global, and stay legal.
func isRealClockVar(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Name() != "RealClock" || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
