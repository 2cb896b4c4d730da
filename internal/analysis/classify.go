package analysis

// A Class records which invariant families a package has opted into.
// It is the shared package-classification layer: computed once per
// package from the //vw: directives and handed to every analyzer
// through Pass.Class, replacing the per-analyzer private package
// lists of the first-generation suite.
//
//   - Deterministic packages promise byte-identical replay: the
//     wallclock analyzer bans wall-clock/global-RNG reads and the
//     maporder analyzer bans map-iteration order leaking into output.
//   - WireFacing packages encode, decode, or route protocol bytes:
//     maporder applies to them too.
//
// The hotpath analyzer needs no class: it scopes itself to the
// functions marked //vw:hotpath.
type Class struct {
	// Deterministic is set by the //vw:deterministic package directive.
	Deterministic bool
	// WireFacing is set by the //vw:wire package directive.
	WireFacing bool
}

// Classify derives a package's class from its parsed directives. The
// directives in the source are the single source of truth — the
// PackageClasses registry below only pins which packages must carry
// them — so the analysistest fixtures see exactly the same
// classification as the driver.
func Classify(d *Directives) Class {
	return Class{
		Deterministic: d.Deterministic,
		WireFacing:    d.Wire,
	}
}

// PackageClasses pins the classification of the module's own
// packages. The vwlint driver fails if a listed package drops the
// matching //vw: directive, so neither the determinism net nor the
// wire-facing net can rot silently. (The inverse — a directive on an
// unlisted package — is fine: fixtures and new packages opt in
// locally first.)
var PackageClasses = map[string]Class{
	"repro/internal/client":    {WireFacing: true},
	"repro/internal/compute":   {Deterministic: true},
	"repro/internal/datasets":  {Deterministic: true},
	"repro/internal/dlib":      {Deterministic: true, WireFacing: true},
	"repro/internal/env":       {Deterministic: true},
	"repro/internal/field":     {Deterministic: true},
	"repro/internal/grid":      {Deterministic: true},
	"repro/internal/integrate": {Deterministic: true},
	"repro/internal/isosurf":   {Deterministic: true},
	"repro/internal/netsim":    {Deterministic: true},
	"repro/internal/relay":     {Deterministic: true, WireFacing: true},
	"repro/internal/render":    {Deterministic: true},
	"repro/internal/server":    {Deterministic: true, WireFacing: true},
	"repro/internal/store":     {Deterministic: true},
	"repro/internal/vr":        {Deterministic: true},
	"repro/internal/wire":      {Deterministic: true, WireFacing: true},
}
