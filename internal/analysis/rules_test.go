package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ruleMod is a module that keeps every row of ruleRows. Each case of
// TestRules breaks one row by adding or replacing files.
var ruleMod = map[string]string{
	"go.mod": "module tmpmod\n\ngo 1.22\n",
	"internal/wire/wire.go": `// Package wire names the procedures.
//
//vw:deterministic
//vw:wire
package wire

const (
	ProcFrame      = "vw.frame"
	ProcWhoAmI     = "vw.whoami"
	ProcFrameRelay = "vw.framerelay"
)

func AppendReply(dst []byte) []byte { return dst }

type Encoder struct{}

func (*Encoder) Append(dst []byte) []byte { return dst }
`,
	"internal/wire/serve.go": `package wire

import "strconv"

func Answer(e *Encoder) []byte { return e.Append(AppendReply([]byte(strconv.Quote("")))) }
`,
	"internal/dlib/dlib.go": `package dlib

type Server struct{}

func (*Server) Register(proc string, h func()) {}
`,
	"internal/compute/compute.go": `package compute

type Stats struct{}

func (Stats) Units() int { return 0 }

func Run() Stats { return Stats{} }
`,
	"internal/store/store.go": "package store\n\ntype Memory struct{}\n",
	"internal/server/server.go": `// Package server counts planned units, never compute.Stats, and
// keeps no map[int64] of sessions.
package server

import (
	"tmpmod/internal/compute"
	"tmpmod/internal/dlib"
	"tmpmod/internal/wire"
)

func Serve(d *dlib.Server) {
	d.Register(wire.ProcFrame, nil)
	d.Register(wire.ProcWhoAmI, nil)
	d.Register((wire.ProcFrameRelay), nil)
	compute.Run()
}
`,
	"internal/relay/relay.go": `package relay

import (
	"tmpmod/internal/dlib"
	"tmpmod/internal/wire"
)

type Relay struct{ d *dlib.Server }

func (r *Relay) Serve() {
	r.d.Register(wire.ProcFrame, nil)
	r.d.Register(wire.ProcWhoAmI, nil)
	r.d.Register(wire.ProcFrameRelay, nil)
}

func (r *Relay) fetchRound(call func(string)) { call(wire.ProcFrameRelay) }
`,
	"internal/client/client.go": `package client

import "tmpmod/internal/wire"

type Client struct{}

func (*Client) Call(proc string) error { return nil }

// handshake calls through the function its caller hands it.
func handshake(call func(string) error) error { return call(wire.ProcWhoAmI) }

func Dial(c *Client) error {
	if err := handshake(c.Call); err != nil {
		return err
	}
	return c.Call(wire.ProcFrame)
}
`,
	"internal/render/render.go":      "// Package render draws.\n//\n//vw:deterministic\npackage render\n",
	"internal/render/render_test.go": "package render_test\n\nimport (\n\t\"testing\"\n\n\t\"tmpmod/internal/render\"\n)\n\nvar _ = render.Draw\n\nfunc TestDrawGolden(t *testing.T) {}\n",
	"internal/render/draw.go":        "package render\n\nfunc Draw() {}\n",
	"Makefile":                       "lint:\n\tgo run ./cmd/vwlint ./...\n",
	"README.md": "Run `make lint`; `TestDraw*` pins `render.Draw`, `wire.Proc*` and\n" +
		"`dlib.Server.Register` (`Register` for short: `dlib.Register`) live in\n" +
		"`wire/serve.go` and `internal/dlib/dlib.go`; `_test.go` is a pattern.\n" +
		"A `math.Pi` is no package of the module; `render.TestDraw*` is a test.\n",
}

// ruleRows holds ruleMod to one row of each kind, the rows of Rules
// in miniature.
var ruleRows = []Rule{
	importRule{pkg: "internal/server", not: "internal/relay"},
	importRule{pkg: "internal/render", not: "internal/server", tests: true},
	forbidRule{in: []string{"internal/server"}, uses: []string{"internal/store.Memory", "internal/compute.Stats", "internal/compute.Stats.Units"}},
	forbidRule{in: []string{"internal/server", "internal/relay"}, mapKey: "int64"},
	callerRule{fn: "internal/wire.AppendReply", in: "internal/wire/serve.go"},
	callerRule{fn: "internal/wire.Encoder.Append", in: "internal/wire/serve.go"},
	callerRule{fn: "strconv.Quote", in: "internal/wire"},
	procRule{consts: "internal/wire.Proc", register: "internal/dlib.Server.Register",
		servers: []string{"internal/server", "internal/relay"}, client: "internal/client",
		upstream: "internal/wire.ProcFrameRelay", upIn: "internal/relay.Relay.fetchRound"},
	classRule{"internal/wire", Class{Deterministic: true, WireFacing: true}},
	classRule{"internal/render", Class{Deterministic: true}},
	docRule{"README.md"},
}

// checkMod writes ruleMod with edits (an empty source deletes a file),
// loads it as vwlint's whole-module run does, and returns rows'
// findings as "file:line: message [kind]".
func checkMod(t *testing.T, edits map[string]string, rows []Rule) []string {
	t.Helper()
	root := t.TempDir()
	files := make(map[string]string)
	for name, src := range ruleMod {
		files[name] = src
	}
	for name, src := range edits {
		files[name] = src
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if src == "" {
			continue
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, "tmpmod")
	prog := &Program{Root: root, ModPath: "tmpmod", Fset: l.Fset}
	for _, rel := range dirs {
		p, err := l.LoadDir(filepath.Join(root, rel), "tmpmod/"+filepath.ToSlash(rel))
		if err != nil {
			t.Fatal(err)
		}
		prog.Pkgs = append(prog.Pkgs, p)
	}
	var out []string
	for _, d := range prog.Check(rows) {
		at := "-"
		if d.Position.Filename != "" {
			rel, _ := filepath.Rel(root, d.Position.Filename)
			at = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), d.Position.Line)
		}
		out = append(out, fmt.Sprintf("%s: %s [%s]", at, d.Message, d.Analyzer))
	}
	return out
}

// TestRules breaks one rule per case. Each want is a finding's
// "file:line:" and a piece of its message; the case must draw exactly
// those findings. The first case is the module as written, which keeps
// every row, including two shapes a grep got wrong: a comment naming
// what the server must not use, and a procedure called through a
// function parameter. The third, a literal procedure name, is a case.
func TestRules(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edits map[string]string
		want  []string
	}{
		{"good", nil, nil},
		{"import, transitively", map[string]string{
			"internal/mid/mid.go":   "package mid\n\nimport _ \"tmpmod/internal/relay\"\n",
			"internal/server/up.go": "package server\n\nimport _ \"tmpmod/internal/mid\"\n",
		}, []string{"internal/server/up.go:3: internal/server imports tmpmod/internal/mid, which links internal/relay [imports]"}},
		{"import from a test", map[string]string{
			"internal/render/server_test.go": "package render\n\nimport _ \"tmpmod/internal/server\"\n",
		}, []string{"internal/render/server_test.go:3: imports tmpmod/internal/server, which links internal/server"}},
		{"forbidden use", map[string]string{
			"internal/server/store.go": "package server\n\nimport \"tmpmod/internal/store\"\n\nvar _ store.Memory\n",
		}, []string{"internal/server/store.go:5: internal/server uses internal/store.Memory [forbid]"}},
		{"forbidden method, its type unnamed", map[string]string{
			"internal/server/units.go": "package server\n\nimport \"tmpmod/internal/compute\"\n\nvar _ = compute.Run().Units()\n",
		}, []string{"internal/server/units.go:5: internal/server uses internal/compute.Stats.Units"}},
		{"map keyed by a session id", map[string]string{
			"internal/relay/ids.go": "package relay\n\ntype sid int64\n\nvar _ = make(map[sid]bool)\n",
		}, []string{"internal/relay/ids.go:5: internal/relay declares a map keyed by int64"}},
		{"second caller", map[string]string{
			"internal/relay/reply.go": "package relay\n\nimport \"tmpmod/internal/wire\"\n\nvar _ = wire.AppendReply(nil)\n",
		}, []string{
			"internal/relay/reply.go:5: internal/wire.AppendReply has 2 non-test callers; it needs exactly one, in internal/wire/serve.go [onecaller]",
			"internal/wire/serve.go:5: internal/wire.AppendReply has 2 non-test callers",
		}},
		{"method value as caller, outside its place", map[string]string{
			"internal/wire/serve.go": "package wire\n\nimport \"strconv\"\n\nfunc Answer() []byte { return AppendReply([]byte(strconv.Quote(\"\"))) }\n",
			"internal/client/enc.go": "package client\n\nimport \"tmpmod/internal/wire\"\n\nvar _ = (*wire.Encoder).Append\n",
		}, []string{"internal/client/enc.go:5: internal/wire.Encoder.Append has 1 non-test callers; it needs exactly one, in internal/wire/serve.go"}},
		{"literal procedure name", map[string]string{
			"internal/server/lit.go": "package server\n\nimport \"tmpmod/internal/dlib\"\n\nfunc lit(d *dlib.Server) { d.Register(\"vw.frame\", nil) }\n",
		}, []string{"internal/server/lit.go:5: a procedure is registered under a name that is not a internal/wire.Proc* constant [procs]"}},
		{"procedure neither registered nor called", map[string]string{
			"internal/wire/more.go": "package wire\n\nconst ProcSteer = \"vw.steer\"\n",
		}, []string{
			"internal/wire/more.go:3: wire.ProcSteer is not registered in internal/server",
			"internal/wire/more.go:3: wire.ProcSteer is not registered in internal/relay",
			"internal/wire/more.go:3: wire.ProcSteer is not called from internal/client",
		}},
		{"upstream exchange lost its call", map[string]string{
			"internal/relay/fetch.go": "package relay\n\nimport \"tmpmod/internal/wire\"\n\nvar _ = wire.ProcFrameRelay\n",
			"internal/relay/relay.go": strings.Replace(ruleMod["internal/relay/relay.go"], "call(wire.ProcFrameRelay)", "call(\"\")", 1),
		}, []string{"internal/relay/relay.go:16: internal/relay.Relay.fetchRound does not use internal/wire.ProcFrameRelay"}},
		{"class directive dropped", map[string]string{
			"internal/render/render.go": "// Package render draws.\npackage render\n",
		}, []string{"internal/render/draw.go:1: internal/render must carry //vw:deterministic [class]"}},
		{"docs", map[string]string{
			"README.md": "`TestNone` and `make deps`\nname `gone.go`, `render.Erase`, `dlib.Server.Close`;\nsee direction 5.\n",
		}, []string{
			"README.md:1: `TestNone` names no test",
			"README.md:1: `make deps` names no Makefile target",
			"README.md:2: `gone.go` names no file",
			"README.md:2: `render.Erase` does not resolve",
			"README.md:2: `dlib.Server.Close` does not resolve",
			"README.md:3: \"direction 5\": ROADMAP's directions are cited by title",
		}},
		{"a row that names nothing", map[string]string{
			"internal/store/store.go": "package store\n\ntype Mem struct{}\n",
		}, []string{"-: the rule names internal/store.Memory, which is not declared"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := checkMod(t, tc.edits, ruleRows)
			if len(got) != len(tc.want) {
				t.Fatalf("%d findings, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i, w := range tc.want {
				at, msg, _ := strings.Cut(w, ": ")
				if !strings.HasPrefix(got[i], at+":") || !strings.Contains(got[i], msg) {
					t.Errorf("finding %d = %q, want %q", i, got[i], w)
				}
			}
		})
	}
}

// TestRulesKinds is the tripwire for an untested rule kind: every kind
// in Rules has a row in ruleRows, and so a case in TestRules.
func TestRulesKinds(t *testing.T) {
	tested := make(map[string]bool)
	for _, r := range ruleRows {
		tested[r.Kind()] = true
	}
	for _, r := range Rules {
		if !tested[r.Kind()] {
			t.Errorf("rule kind %s has no fixture row", r.Kind())
		}
	}
}
