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

// classify derives a package's class from its parsed directives. The
// directives in the source are the single source of truth — the class
// rows of Rules only pin which packages must carry them — so the
// analysistest fixtures see exactly the same classification as vwlint.
func classify(d *Directives) Class {
	return Class{
		Deterministic: d.Deterministic,
		WireFacing:    d.Wire,
	}
}
