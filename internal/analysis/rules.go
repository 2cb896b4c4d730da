package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// Rules is the module's structural rule table. Each row states one rule
// once, in its comment; the row's type is the generic check that holds
// it. Paths are relative to the module root; a name is "path.Name" or
// "path.Type.Member", and a path outside the module is an import path.
var Rules = []Rule{
	// Relays and the load harness sit on top of the server, never inside it.
	importRule{pkg: "internal/server", not: "internal/relay"},
	// The paper's figures are regenerated by cmd/vwbench, not by the
	// renderer's tests through a server.
	importRule{pkg: "internal/render", not: "internal/server", tests: true},
	// Residency is decided behind store.Source: the server names no
	// concrete store and no sampler of one.
	forbidRule{in: []string{"internal/server"}, uses: []string{"internal/store.Memory", "internal/store.Ring", "internal/store.Disk", "internal/integrate.UnsteadySampler"}},
	// The round's work has one ledger, the governor's demand rows: the
	// server calibrates on, and grades fidelity in, the units it plans.
	forbidRule{in: []string{"internal/server"}, uses: []string{"internal/compute.Stats", "internal/compute.Stats.Units"}},
	// Session state has one owner, the dlib.Session: no table keyed by
	// session id beside the record the session carries in its State.
	forbidRule{in: []string{"internal/server", "internal/relay"}, mapKey: "int64"},
	// What a session is sent is decided once, by wire.Session's
	// AnswerFrame and AnswerRelay.
	callerRule{fn: "internal/wire.AppendRelayFrameReply", in: "internal/wire/serve.go"},
	callerRule{fn: "internal/wire.FrameEncoder.AppendFrame", in: "internal/wire/serve.go"},
	// A rake's segment is written once, by the pool unit that computed
	// its lines; a relay forwards segments and never re-quantizes.
	callerRule{fn: "internal/wire.AppendGeomV2", in: "internal/server/compute.go"},
	// A timestep file is mapped in one place, store.Disk, so a mapping
	// has one release rule.
	callerRule{fn: "syscall.Mmap", in: "internal/store"},
	callerRule{fn: "syscall.Munmap", in: "internal/store"},
	// Every procedure a dlib server answers is one the windtunnel calls:
	// each Register names a wire.Proc constant, the origin and the relay
	// register every one, internal/client calls each but ProcFrameRelay,
	// and the relay's upstream exchange calls that one. A relay
	// forwarding a call upstream is not a caller.
	procRule{consts: "internal/wire.Proc", register: "internal/dlib.Server.Register", servers: []string{"internal/server", "internal/relay"},
		client: "internal/client", upstream: "internal/wire.ProcFrameRelay", upIn: "internal/relay.Relay.fetchRound"},
	// The invariant nets do not rot: each package keeps its opt-in to the
	// determinism analyzers (//vw:deterministic) and the wire-facing ones
	// (//vw:wire).
	classRule{"internal/client", Class{WireFacing: true}},
	classRule{"internal/compute", Class{Deterministic: true}},
	classRule{"internal/datasets", Class{Deterministic: true}},
	classRule{"internal/dlib", Class{Deterministic: true, WireFacing: true}},
	classRule{"internal/env", Class{Deterministic: true}},
	classRule{"internal/field", Class{Deterministic: true}},
	classRule{"internal/grid", Class{Deterministic: true}},
	classRule{"internal/integrate", Class{Deterministic: true}},
	classRule{"internal/isosurf", Class{Deterministic: true}},
	classRule{"internal/netsim", Class{Deterministic: true}},
	classRule{"internal/relay", Class{Deterministic: true, WireFacing: true}},
	classRule{"internal/render", Class{Deterministic: true}},
	classRule{"internal/server", Class{Deterministic: true, WireFacing: true}},
	classRule{"internal/store", Class{Deterministic: true}},
	classRule{"internal/vr", Class{Deterministic: true}},
	classRule{"internal/wire", Class{Deterministic: true, WireFacing: true}},
	// The docs cite what exists (see docRule); a name cited as since
	// deleted goes without backticks.
	docRule{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"},
}

// A Program is the module as vwlint's whole-module run loads it: every
// package's non-test code, typechecked once by one Loader, and the
// checkout it sits in.
type Program struct {
	Root, ModPath string
	Fset          *token.FileSet
	Pkgs          []*Package
}

// A Rule is one row of a rule table. Kind names the row's check in
// findings and in vwlint -stats.
type Rule interface {
	Kind() string
	check(p *Program, report reporter)
}

type reporter func(pos token.Position, format string, args ...any)

// Check holds the program to rules and returns the findings, sorted by
// position. No //vw:allow reaches them: a rule changes in its row.
func (p *Program) Check(rules []Rule) []Diagnostic {
	var out []Diagnostic
	for _, r := range rules {
		r.check(p, func(pos token.Position, format string, args ...any) {
			out = append(out, Diagnostic{Position: pos, Message: fmt.Sprintf(format, args...), Analyzer: r.Kind()})
		})
	}
	sortDiagnostics(out)
	return out
}

// row is the loaded package at a row's module-relative path. A row
// naming a package or a name that is not there is a finding, so a
// rename cannot switch a rule off.
func (p *Program) row(rel string, report reporter) *Package {
	for _, q := range p.Pkgs {
		if q.Types.Path() == p.ModPath+"/"+rel {
			return q
		}
	}
	report(token.Position{}, "the rule names %s, which is not loaded", rel)
	return nil
}

// lookup resolves a row's name, whose package is one of the module's or
// one they import.
func (p *Program) lookup(name string, report reporter) types.Object {
	slash := strings.LastIndex(name, "/") + 1
	path, sel, _ := strings.Cut(name[slash:], ".")
	typ, member, _ := strings.Cut(sel, ".")
	for _, q := range p.Pkgs {
		for _, tp := range append([]*types.Package{q.Types}, q.Types.Imports()...) {
			obj := tp.Scope().Lookup(typ)
			if tp.Path() != name[:slash]+path && tp.Path() != p.ModPath+"/"+name[:slash]+path || obj == nil {
				continue
			}
			if member != "" {
				obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, tp, member)
			}
			if obj != nil {
				return obj
			}
		}
	}
	report(token.Position{}, "the rule names %s, which is not declared", name)
	return nil
}

// importRule: the package pkg does not depend on the package not,
// directly or transitively; with tests set, neither do its _test.go
// files, whose imports alone are parsed.
type importRule struct {
	pkg, not string
	tests    bool
}

func (importRule) Kind() string { return "imports" }

func (r importRule) check(p *Program, report reporter) {
	q := p.row(r.pkg, report)
	if q == nil {
		return
	}
	files := q.Files // a test links its package, so the package's imports count
	if r.tests {
		names, _ := filepath.Glob(filepath.Join(p.Root, r.pkg, "*_test.go"))
		for _, name := range names {
			if f, err := parser.ParseFile(p.Fset, name, nil, parser.ImportsOnly); err != nil {
				report(token.Position{Filename: name}, "%v", err)
			} else {
				files = append(files, f)
			}
		}
	}
	links := map[string]bool{p.ModPath + "/" + r.not: true} // by import path
	for _, dep := range p.Pkgs {
		links[dep.Types.Path()] = links[dep.Types.Path()] || reaches(dep.Types, p.ModPath+"/"+r.not, map[*types.Package]bool{})
	}
	for _, f := range files {
		for _, spec := range f.Imports {
			if path, _ := strconv.Unquote(spec.Path.Value); links[path] {
				report(p.Fset.Position(spec.Pos()), "%s imports %s, which links %s", r.pkg, path, r.not)
			}
		}
	}
}

// reaches reports whether tp imports the package at path, transitively.
func reaches(tp *types.Package, path string, seen map[*types.Package]bool) bool {
	seen[tp] = true
	for _, imp := range tp.Imports() {
		if imp.Path() == path || !seen[imp] && reaches(imp, path, seen) {
			return true
		}
	}
	return false
}

// forbidRule: the non-test code of the packages in uses none of the
// objects uses names and, with mapKey set, declares no map whose key
// is, or has as underlying type, that basic type.
type forbidRule struct {
	in, uses []string
	mapKey   string
}

func (forbidRule) Kind() string { return "forbid" }

func (r forbidRule) check(p *Program, report reporter) {
	banned := make(map[types.Object]string)
	for _, name := range r.uses {
		banned[p.lookup(name, report)] = name // a nil key matches no use
	}
	for _, rel := range r.in {
		q := p.row(rel, report)
		if q == nil {
			continue
		}
		for id, obj := range q.Info.Uses {
			if name, ok := banned[origin(obj)]; ok {
				report(p.Fset.Position(id.Pos()), "%s uses %s", rel, name)
			}
		}
		for e, tv := range q.Info.Types {
			if _, ok := e.(*ast.MapType); ok && r.mapKey != "" && tv.Type.(*types.Map).Key().Underlying().String() == r.mapKey {
				report(p.Fset.Position(e.Pos()), "%s declares a map keyed by %s", rel, r.mapKey)
			}
		}
	}
}

// callerRule: the function fn has exactly one non-test use in the
// module, and it is in the file or directory in.
type callerRule struct{ fn, in string }

func (callerRule) Kind() string { return "onecaller" }

func (r callerRule) check(p *Program, report reporter) {
	fn := p.lookup(r.fn, report)
	var uses []token.Position
	for _, q := range p.Pkgs {
		for id, obj := range q.Info.Uses {
			if fn != nil && origin(obj) == fn {
				uses = append(uses, p.Fset.Position(id.Pos()))
			}
		}
	}
	if fn != nil && len(uses) == 0 {
		report(p.Fset.Position(fn.Pos()), "%s has no non-test caller; its one caller belongs in %s", r.fn, r.in)
	}
	for _, u := range uses {
		rel, _ := filepath.Rel(p.Root, u.Filename)
		if rel = filepath.ToSlash(rel); len(uses) > 1 || rel != r.in && !strings.HasPrefix(rel, r.in+"/") {
			report(u, "%s has %d non-test callers; it needs exactly one, in %s", r.fn, len(uses), r.in)
		}
	}
}

// procRule: every non-test call of register names a constant whose
// name is consts (a package and a prefix); each package in servers
// registers every such constant; each but upstream is passed to some
// call in the package client, and upstream is used in the function upIn.
type procRule struct {
	consts, register, client, upstream, upIn string
	servers                                  []string
}

func (procRule) Kind() string { return "procs" }

func (r procRule) check(p *Program, report reporter) {
	cut := strings.LastIndex(r.consts, ".")
	wire, reg, up, upIn := p.row(r.consts[:cut], report), p.lookup(r.register, report), p.lookup(r.upstream, report), p.lookup(r.upIn, report)
	if wire == nil || reg == nil || up == nil || upIn == nil {
		return
	}
	isProc := func(obj types.Object) bool {
		c, ok := obj.(*types.Const)
		return ok && c.Pkg() == wire.Types && strings.HasPrefix(c.Name(), r.consts[cut+1:])
	}
	registered, called, upstream := make(map[[2]any]bool), make(map[types.Object]bool), false // registered: by package and constant
	for _, q := range p.Pkgs {
		rel := strings.TrimPrefix(q.Types.Path(), p.ModPath+"/")
		for _, f := range q.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok && q.Info.Defs[fd.Name] == upIn {
					ast.Inspect(fd, func(n ast.Node) bool { upstream = upstream || useOf(q.Info, n) == up; return true })
				}
				call, ok := n.(*ast.CallExpr)
				if ok && useOf(q.Info, call.Fun) == reg && len(call.Args) > 0 {
					if c := useOf(q.Info, call.Args[0]); isProc(c) {
						registered[[2]any{rel, c}] = true
					} else {
						report(p.Fset.Position(call.Args[0].Pos()), "a procedure is registered under a name that is not a %s* constant", r.consts)
					}
				}
				for i := 0; ok && rel == r.client && i < len(call.Args); i++ {
					called[useOf(q.Info, call.Args[i])] = true
				}
				return true
			})
		}
	}
	for _, name := range wire.Types.Scope().Names() {
		c := wire.Types.Scope().Lookup(name)
		for _, s := range r.servers {
			if isProc(c) && !registered[[2]any{s, c}] {
				report(p.Fset.Position(c.Pos()), "%s.%s is not registered in %s", wire.Types.Name(), name, s)
			}
		}
		if isProc(c) && c != up && !called[c] {
			report(p.Fset.Position(c.Pos()), "%s.%s is not called from %s", wire.Types.Name(), name, r.client)
		}
	}
	if !upstream {
		report(p.Fset.Position(upIn.Pos()), "%s does not use %s", r.upIn, r.upstream)
	}
}

// classRule: the package pkg carries the //vw: directives of its class.
type classRule struct {
	pkg string
	Class
}

func (classRule) Kind() string { return "class" }

func (r classRule) check(p *Program, report reporter) {
	if q := p.row(r.pkg, report); q != nil {
		got, at := classify(q.Directives), p.Fset.Position(q.Files[0].Package)
		if r.Deterministic && !got.Deterministic {
			report(at, "%s must carry //vw:deterministic", r.pkg)
		}
		if r.WireFacing && !got.WireFacing {
			report(at, "%s must carry //vw:wire", r.pkg)
		}
	}
}

// docRule: the named docs cite what exists. In every backticked span, a
// TestX, BenchmarkX or FuzzX names a func declared in some _test.go file
// of the checkout, benchmark/ included; `make <target>` names a
// Makefile target; a file name ending .go, .s, .json, .txt, .md, .sh or
// .jsonl, less any leading ./ and ../, is a path, or a path's
// "/"-suffix, in the checkout (a name with a part that starts with _,
// such as `_test.go`, is a pattern and is skipped); and pkg.Name or
// pkg.Type.Member, where pkg names a package of the module and Name is
// exported, resolves in its scope, a bare method or field name standing
// for (*pkg.T).Name (a pkg.TestX is left to the test check). A * stands
// for any run of identifier characters. Outside backticks too, no doc
// cites ROADMAP's directions by number: the numbers are ROADMAP's own.
type docRule []string

func (docRule) Kind() string { return "docs" }

var (
	spanRe      = regexp.MustCompile("`[^`]*`")
	testRe      = regexp.MustCompile(`[^A-Za-z0-9_]((?:Test|Benchmark|Fuzz)[A-Z*][A-Za-z0-9_*]*)`)
	makeRe      = regexp.MustCompile(`[^A-Za-z0-9_-]make[ \t]+([A-Za-z0-9_-]+)`)
	fileRe      = regexp.MustCompile(`(?:\.\.?/)*([A-Za-z0-9_./-]+\.(?:go|s|json|txt|md|sh|jsonl))[^A-Za-z0-9_./-]`)
	nameRe      = regexp.MustCompile(`[^A-Za-z0-9_./-]([a-z][a-z0-9]*\.[A-Z*][A-Za-z0-9_*]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)`)
	patternRe   = regexp.MustCompile(`(^|/)_`)
	directionRe = regexp.MustCompile(`(?i)\bdirections? +[0-9]+`)
)

func (r docRule) check(p *Program, report reporter) {
	files, tests := make(map[string]bool), "" // tests: one name a line
	err := filepath.WalkDir(p.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != p.Root && strings.HasPrefix(d.Name(), ".") {
			return cmp.Or(err, filepath.SkipDir)
		} else if d.IsDir() {
			return nil
		}
		rel, _ := filepath.Rel(p.Root, path)
		for rel = filepath.ToSlash(rel); rel != ""; _, rel, _ = strings.Cut(rel, "/") {
			files[rel] = true // and every "/"-suffix a cite may use
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				tests += fd.Name.Name + "\n"
			}
		}
		return nil
	})
	if err != nil {
		report(token.Position{}, "%v", err)
	}
	makefile, _ := os.ReadFile(filepath.Join(p.Root, "Makefile"))
	for _, doc := range r {
		files[doc] = true
	}
	for _, doc := range r {
		text, err := os.ReadFile(filepath.Join(p.Root, doc))
		at := func(off int) token.Position {
			return token.Position{Filename: filepath.Join(p.Root, doc), Line: 1 + strings.Count(string(text[:off]), "\n")}
		}
		if err != nil {
			report(at(0), "%v", err)
		}
		for _, m := range directionRe.FindAllIndex(text, -1) {
			report(at(m[0]), "%q: ROADMAP's directions are cited by title outside ROADMAP.md", text[m[0]:m[1]])
		}
		for _, s := range spanRe.FindAllIndex(text, -1) {
			span := " " + string(text[s[0]+1:s[1]-1]) + " " // span[i] is text[s[0]+i]
			find := func(re *regexp.Regexp, ok func(tok string) bool, format string) {
				for _, m := range re.FindAllStringSubmatchIndex(span, -1) {
					if tok := span[m[2]:m[3]]; !ok(tok) {
						report(at(s[0]+m[2]), format, tok)
					}
				}
			}
			find(testRe, func(tok string) bool { return glob(tok).MatchString(tests) }, "`%s` names no test, benchmark or fuzz target")
			find(makeRe, func(tok string) bool { return regexp.MustCompile("(?m)^" + tok + ":").Match(makefile) }, "`make %s` names no Makefile target")
			find(fileRe, func(tok string) bool { return files[tok] || patternRe.MatchString(tok) }, "`%s` names no file in the checkout")
			find(nameRe, p.resolves, "`%s` does not resolve in its package")
		}
	}
}

// glob matches a whole name, or a whole line, a * in tok standing for
// any run of identifier characters.
func glob(tok string) *regexp.Regexp {
	return regexp.MustCompile("(?m)^" + strings.ReplaceAll(regexp.QuoteMeta(tok), `\*`, `[A-Za-z0-9_]*`) + "$")
}

// resolves reports whether a cited pkg.Name[.Member] resolves; a test
// name, and a pkg that is no package of the module, are left alone.
func (p *Program) resolves(cite string) bool {
	parts := strings.SplitN(cite+".", ".", 3)
	name, member, found := glob(parts[1]), strings.TrimSuffix(parts[2], "."), false
	for _, q := range p.Pkgs {
		if q.Types.Name() != parts[0] || parts[0] == "main" {
			continue
		}
		found = true
		for _, n := range q.Types.Scope().Names() {
			obj := q.Types.Scope().Lookup(n)
			_, isType := obj.(*types.TypeName)
			if name.MatchString(n) && (member == "" || hasMember(obj, member)) || member == "" && isType && hasMember(obj, parts[1]) {
				return true
			}
		}
	}
	return !found || testRe.MatchString(" "+parts[1])
}

func hasMember(obj types.Object, name string) bool {
	m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
	return m != nil
}
