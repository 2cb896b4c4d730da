package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockDiscipline mechanically checks the repo's two locking
// conventions:
//
//  1. Methods named fooLocked are called only while the receiver's mu
//     is held (by an enclosing Lock/Unlock pair in the caller, or
//     because the caller is itself a *Locked method of the same
//     receiver).
//
//  2. Struct fields declared below a mutex commented
//     "guards everything below" are only accessed while that mutex is
//     held.
//
// The lock tracker is positional, not control-flow-sensitive: a mutex
// counts as held at P when the last textual X.mu.Lock() before P is
// later than the last effective X.mu.Unlock() before P. Deferred
// unlocks never end the held region, and an inline unlock inside a
// branch that exits (return/break/continue) does not end the region
// for code after that branch — the early-unlock-and-return idiom.
// Construction is exempt: accesses through a variable created inside
// the same function (s := &Server{...}; s.round = ...) are not
// flagged, since the value is not shared yet.
var lockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "check *Locked call sites and \"guards everything below\" field access against mutex state",
	Run:  runLockDiscipline,
}

// guardPhrase is the magic comment that turns a sync.Mutex field into
// a guard for every field declared after it in the same struct.
const guardPhrase = "guards everything below"

// A guardedField says which mutex field protects a struct field.
type guardedField struct {
	mutex      string // mutex field name, e.g. "mu"
	structName string // for diagnostics
}

func runLockDiscipline(pass *Pass) {
	guarded := collectGuarded(pass)
	for _, file := range pass.Files {
		for _, sc := range funcScopes(file) {
			checkLockScope(pass, sc, guarded)
		}
	}
}

// collectGuarded finds every "guards everything below" mutex and maps
// the field objects declared below it to their guard.
func collectGuarded(pass *Pass) map[types.Object]guardedField {
	guarded := make(map[types.Object]guardedField)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			mutex := ""
			for _, field := range st.Fields.List {
				if mutex != "" {
					for _, name := range field.Names {
						if obj := pass.Info.Defs[name]; obj != nil {
							guarded[obj] = guardedField{mutex: mutex, structName: ts.Name.Name}
						}
					}
				}
				if !fieldHasGuardComment(field) {
					continue
				}
				if len(field.Names) == 1 && isSyncMutex(pass.Info.Defs[field.Names[0]]) {
					mutex = field.Names[0].Name
				}
			}
			return true
		})
	}
	return guarded
}

func fieldHasGuardComment(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && strings.Contains(cg.Text(), guardPhrase) {
			return true
		}
	}
	return false
}

func isSyncMutex(obj types.Object) bool {
	if obj == nil {
		return false
	}
	s := obj.Type().String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// A lockEvent is one textual X.mu.Lock/Unlock call inside a scope.
type lockEvent struct {
	path     string // rendered mutex path, e.g. "s.mu"
	pos      token.Pos
	unlock   bool
	deferred bool
	// For inline unlocks: the innermost enclosing block's extent and
	// whether that block exits (return/break/continue/goto) after the
	// unlock — the early-unlock-and-return idiom.
	blockEnd  token.Pos
	blockExit bool
}

// checkLockScope verifies one function scope against the lock rules.
func checkLockScope(pass *Pass, sc funcScope, guarded map[types.Object]guardedField) {
	events := collectLockEvents(pass, sc)

	// held reports whether mutexPath is held at p under the
	// positional model.
	held := func(mutexPath string, p token.Pos) bool {
		var lastLock, lastUnlock token.Pos
		for _, e := range events {
			if e.path != mutexPath || e.pos >= p {
				continue
			}
			if !e.unlock {
				if e.pos > lastLock {
					lastLock = e.pos
				}
				continue
			}
			if e.deferred {
				continue // runs at return; never ends the region
			}
			if e.blockExit && p > e.blockEnd {
				continue // unlock on an exiting branch we are past
			}
			if e.pos > lastUnlock {
				lastUnlock = e.pos
			}
		}
		return lastLock != token.NoPos && lastLock > lastUnlock
	}

	// byContract: a *Locked method's own body runs with the
	// receiver's mu held by its caller.
	contractOwner := ""
	if sc.Decl != nil && strings.HasSuffix(sc.Decl.Name.Name, "Locked") {
		contractOwner = recvName(sc.Decl)
	}

	// localRoot reports whether the access path is rooted at a
	// variable created inside this scope — freshly constructed, not
	// yet shared, so lock-free access is fine.
	localRoot := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return true // computed base: stay quiet
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			if obj = pass.Info.Defs[id]; obj == nil {
				return true
			}
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true // package selector etc.
		}
		return v.Pos() >= sc.Body.Pos() && v.Pos() < sc.Body.End()
	}

	ok := func(owner string, p token.Pos, mutex string) bool {
		if owner == contractOwner && contractOwner != "" {
			return true
		}
		return held(owner+"."+mutex, p)
	}

	inspectScope(sc.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, okSel := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !okSel || !strings.HasSuffix(sel.Sel.Name, "Locked") {
				return true
			}
			if _, isFunc := pass.Info.Uses[sel.Sel].(*types.Func); !isFunc {
				return true
			}
			recv := unconvert(pass.Info, sel.X)
			owner, okPath := pathString(recv)
			if !okPath || localRoot(recv) {
				return true
			}
			if !ok(owner, n.Pos(), "mu") {
				pass.reportf(n.Pos(), "%s.%s called without holding %s.mu", owner, sel.Sel.Name, owner)
			}
		case *ast.SelectorExpr:
			obj := pass.Info.Uses[n.Sel]
			g, isGuarded := guarded[obj]
			if !isGuarded {
				return true
			}
			owner, okPath := pathString(n.X)
			if !okPath || localRoot(n.X) {
				return true
			}
			if !ok(owner, n.Pos(), g.mutex) {
				pass.reportf(n.Pos(), "%s.%s is guarded by %s.%s (\"%s\") but accessed without the lock",
					owner, n.Sel.Name, owner, g.mutex, guardPhrase)
			}
		}
		return true
	})
}

// collectLockEvents gathers sync Lock/Unlock calls in the scope along
// with the block/exit context the positional model needs.
func collectLockEvents(pass *Pass, sc funcScope) []lockEvent {
	// Deferred calls never end a held region.
	deferred := make(map[*ast.CallExpr]bool)
	inspectScope(sc.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})

	// blocks: every statement-list extent in the scope, for innermost
	// lookup. CaseClause/CommClause bodies are statement lists too.
	type blockInfo struct {
		pos, end token.Pos
		exits    []token.Pos // direct or nested return/branch starts
	}
	var blocks []blockInfo
	inspectScope(sc.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			blocks = append(blocks, blockInfo{pos: n.Pos(), end: n.End()})
		}
		return true
	})
	var exits []token.Pos
	inspectScope(sc.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			exits = append(exits, n.Pos())
		}
		return true
	})
	for i := range blocks {
		for _, e := range exits {
			if e >= blocks[i].pos && e < blocks[i].end {
				blocks[i].exits = append(blocks[i].exits, e)
			}
		}
	}
	innermost := func(p token.Pos) *blockInfo {
		var best *blockInfo
		for i := range blocks {
			b := &blocks[i]
			if p < b.pos || p >= b.end {
				continue
			}
			if best == nil || b.pos > best.pos {
				best = b
			}
		}
		return best
	}

	var events []lockEvent
	inspectScope(sc.Body, func(n ast.Node) bool {
		call, okCall := n.(*ast.CallExpr)
		if !okCall {
			return true
		}
		sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !okSel {
			return true
		}
		name := sel.Sel.Name
		if name != "Lock" && name != "Unlock" && name != "RLock" && name != "RUnlock" && name != "TryLock" {
			return true
		}
		fn, okFn := pass.Info.Uses[sel.Sel].(*types.Func)
		if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		path, okPath := pathString(sel.X)
		if !okPath {
			return true
		}
		ev := lockEvent{
			path:     path,
			pos:      call.Pos(),
			unlock:   name == "Unlock" || name == "RUnlock",
			deferred: deferred[call],
		}
		if ev.unlock && !ev.deferred {
			if b := innermost(call.Pos()); b != nil {
				ev.blockEnd = b.end
				for _, e := range b.exits {
					if e > call.Pos() {
						ev.blockExit = true
						break
					}
				}
			}
		}
		events = append(events, ev)
		return true
	})
	return events
}
