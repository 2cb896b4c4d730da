package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Loader parses and typechecks packages for analysis using only the
// standard library: go/build for file selection, go/parser for
// syntax, and go/types with the source importer for type information.
// One Loader shares a FileSet and importer across packages, so
// dependencies (including the standard library) are typechecked once.
// A package of the module being linted is typechecked once too, by
// LoadDir, whether vwlint asks for it or another package imports
// it: every package sees the one object a declaration has, which is
// what lets Unreachable match a use to its declaration.
type Loader struct {
	Fset          *token.FileSet
	ctxt          build.Context
	imp           types.Importer
	root, modPath string
	pkgs          map[string]*Package // by import path
}

// NewLoader returns a Loader rooted in the current build context for
// the module modPath at directory root; with modPath empty every
// import goes through the source importer. Cgo is disabled: the source
// importer cannot run cgo, and this repo (and its analysis targets)
// are pure Go.
func NewLoader(root, modPath string) *Loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ctxt:    ctxt,
		imp:     importer.ForCompiler(fset, "source", nil),
		root:    root,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
	}
}

// Import resolves an import for the typechecker: a package of the
// module through LoadDir, anything else through the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.modPath+"/")
	if path == l.modPath {
		rel, ok = ".", true
	}
	if l.modPath == "" || !ok {
		return l.imp.Import(path)
	}
	p, err := l.LoadDir(filepath.Join(l.root, filepath.FromSlash(rel)), path)
	if err == nil && p == nil {
		err = fmt.Errorf("analysis: %s has no Go files", path)
	}
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

// LoadDir parses and typechecks the single package in dir as
// importPath, once: a second call returns the first one's Package.
// Directories with no non-test Go files return (nil, nil).
//
// Only non-test files are loaded: _test.go files may not typecheck
// against the bare package, and the analyzers' invariants are about
// production code.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	p, err := l.loadDir(dir, importPath)
	if err == nil {
		l.pkgs[importPath] = p
	}
	return p, err
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	return l.check(importPath, files)
}

// check typechecks already-parsed files into a Package.
func (l *Loader) check(importPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", importPath, err)
	}
	return &Package{
		Types:      tp,
		Fset:       l.Fset,
		Files:      files,
		Info:       info,
		Directives: parseDirectives(l.Fset, files),
	}, nil
}

// ModuleRoot walks upward from dir to the directory containing
// go.mod, and returns it plus the module path declared there.
func ModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// PackageDirs returns every directory under root (inclusive) holding
// at least one non-test .go file, skipping VCS metadata, testdata
// trees, and hidden directories. Paths come back sorted and relative
// to root.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				dirs = append(dirs, rel)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
