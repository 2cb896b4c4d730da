// Command vwlint runs the project's invariant analyzers (wallclock,
// lockdiscipline, hotpath, maporder — see internal/analysis) over the
// repo, the way `make lint` uses it:
//
//	go run ./cmd/vwlint ./...
//	go run ./cmd/vwlint ./internal/server
//	go run ./cmd/vwlint -stats ./...
//
// walks the module, typechecks every non-test package with the
// source importer, and prints findings as file:line:col: message
// [analyzer], exiting 1 if anything (including a malformed //vw:
// directive or a classified package that lost its //vw:deterministic
// or //vw:wire opt-in) survives the //vw:allow annotations. Run over
// the whole module, it also runs the reachability pass
// (analysis.Unreachable): every exported name under internal/ has a
// caller in another package's non-test code, cmd/, examples/ and
// benchmark/ included, or is marked //vw:testonly. -stats prints the
// //vw:allow count per analyzer.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var statsMode bool
	var patterns []string
	for _, a := range args {
		switch a {
		case "-stats", "--stats":
			statsMode = true
		default:
			if strings.HasPrefix(a, "-") {
				return fail(stderr, fmt.Errorf("unknown flag %s", a))
			}
			patterns = append(patterns, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fail(stderr, err)
	}
	root, modPath, err := analysis.ModuleRoot(cwd)
	if err != nil {
		return fail(stderr, err)
	}
	dirs, whole, err := selectDirs(root, cwd, patterns)
	if err != nil {
		return fail(stderr, err)
	}

	loader := analysis.NewLoader(root, modPath)
	analyzers := analysis.All()
	var findings, bad []analysis.Diagnostic
	var pkgs []*analysis.Package
	classes := make(map[string]analysis.Class) // import path -> directive-derived class
	allowCounts := make(map[string]int)
	for _, rel := range dirs {
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.LoadDir(filepath.Join(root, rel), importPath)
		if err != nil {
			return fail(stderr, err)
		}
		if pkg == nil {
			continue
		}
		pkgs = append(pkgs, pkg)
		classes[importPath] = analysis.Classify(pkg.Directives)
		for name, n := range pkg.Directives.AllowCounts() {
			allowCounts[name] += n
		}
		bad = append(bad, pkg.Directives.Bad...)
		for _, a := range analyzers {
			findings = append(findings, analysis.Run(a, pkg)...)
		}
	}

	if statsMode {
		printStats(stdout, allowCounts)
		return 0
	}
	// Reachability is a property of the whole program: a run over part
	// of it would miss the callers outside that part.
	if whole {
		findings = append(findings, analysis.Unreachable(pkgs, modPath+"/internal")...)
	}

	// The invariant nets must not rot: every package the registry
	// classifies keeps the matching //vw: directive in its source.
	exit := 0
	for _, p := range sortedKeys(analysis.PackageClasses) {
		want := analysis.PackageClasses[p]
		got, loaded := classes[p]
		if !loaded {
			continue
		}
		if want.Deterministic && !got.Deterministic {
			fmt.Fprintf(stderr, "vwlint: %s must carry //vw:deterministic (see internal/analysis.PackageClasses)\n", p)
			exit = 1
		}
		if want.WireFacing && !got.WireFacing {
			fmt.Fprintf(stderr, "vwlint: %s must carry //vw:wire (see internal/analysis.PackageClasses)\n", p)
			exit = 1
		}
	}

	for _, d := range append(bad, findings...) {
		fmt.Fprintln(stderr, relPosition(cwd, d))
		exit = 1
	}
	return exit
}

// printStats renders the //vw:allow debt per analyzer, every known
// analyzer listed even at zero so trends are diffable.
func printStats(w io.Writer, counts map[string]int) {
	total := 0
	for _, a := range analysis.All() {
		fmt.Fprintf(w, "%-16s %d\n", a.Name, counts[a.Name])
		total += counts[a.Name]
	}
	fmt.Fprintf(w, "%-16s %d\n", "total", total)
}

func sortedKeys(m map[string]analysis.Class) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// selectDirs maps package patterns onto module-relative directories,
// and reports whether they are every package of the module.
// Supported: "./..." (everything), "dir/..." (subtree), and plain
// directories.
func selectDirs(root, cwd string, patterns []string) ([]string, bool, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := analysis.PackageDirs(root)
	if err != nil {
		return nil, false, err
	}
	var out []string
	seen := make(map[string]bool)
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		abs := pat
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, pat)
		}
		base, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(base, "..") {
			return nil, false, fmt.Errorf("vwlint: pattern %q is outside the module", pat)
		}
		for _, rel := range all {
			switch {
			case rel == base:
				add(rel)
			case recursive && (base == "." || strings.HasPrefix(rel, base+string(filepath.Separator))):
				add(rel)
			}
		}
	}
	return out, len(out) == len(all), nil
}

func relPosition(cwd string, d analysis.Diagnostic) string {
	s := d.String()
	if rel, err := filepath.Rel(cwd, d.Position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		s = rel + strings.TrimPrefix(s, d.Position.Filename)
	}
	return s
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "vwlint:", err)
	return 1
}
