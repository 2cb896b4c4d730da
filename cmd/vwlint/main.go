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
// directive) survives the //vw:allow annotations. Run over the whole
// module, it also runs the reachability pass (analysis.Unreachable):
// every exported name under internal/ has a caller in another
// package's non-test code, cmd/, examples/ and benchmark/ included, or
// is marked //vw:testonly; and it holds the module to its rule table
// (analysis.Rules), whose rows are of six kinds: imports (a package
// does not link another), forbid (a package uses no such object and
// keys no map by such a type), onecaller (a function has one non-test
// caller, in a named place), procs (dlib procedures are registered and
// called by name), class (a package keeps its //vw: opt-in) and docs
// (backticked citations resolve). -stats prints the //vw:allow count
// per analyzer and the rule table's rows per kind.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	// Reachability and the rule table are properties of the whole
	// program: a run over part of it would miss what lies outside that part.
	if whole {
		findings = append(findings, analysis.Unreachable(pkgs, modPath+"/internal")...)
		prog := &analysis.Program{Root: root, ModPath: modPath, Fset: loader.Fset, Pkgs: pkgs}
		findings = append(findings, prog.Check(analysis.Rules)...)
	}

	exit := 0
	for _, d := range append(bad, findings...) {
		fmt.Fprintln(stderr, relPosition(cwd, d))
		exit = 1
	}
	return exit
}

// printStats renders the //vw:allow debt per analyzer, every known
// analyzer listed even at zero so trends are diffable, then the rows
// of the rule table per kind (no //vw:allow reaches a rule).
func printStats(w io.Writer, counts map[string]int) {
	total := 0
	for _, a := range analysis.All() {
		fmt.Fprintf(w, "%-16s %d\n", a.Name, counts[a.Name])
		total += counts[a.Name]
	}
	fmt.Fprintf(w, "%-16s %d\n", "total", total)
	var kinds []string
	rows := make(map[string]int)
	for _, r := range analysis.Rules {
		if rows[r.Kind()]++; rows[r.Kind()] == 1 {
			kinds = append(kinds, r.Kind())
		}
	}
	for _, k := range kinds {
		fmt.Fprintf(w, "rule:%-11s %d\n", k, rows[k])
	}
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
