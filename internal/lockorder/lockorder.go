// Package lockorder enforces the internal/core lock hierarchy documented
// in DESIGN.md "Concurrency invariants":
//
//	fileEntry.truncMu → fileEntry.writeMu → FS.mu → fileEntry.mu → fileEntry.decMu
//
// Two rules are checked:
//
//  1. Order: acquiring a ranked lock while holding one of higher rank is
//     a violation — directly, or by calling a same-package function
//     whose transitive may-acquire set contains a lower-ranked lock.
//  2. No IO under mu: while fileEntry.mu or fileEntry.decMu is held, no
//     codec encode/decode entrypoint and no backendHandle method may be
//     called (the expensive encode/decode and all backend IO run outside
//     those locks by design; writeMu/truncMu intentionally cover IO).
//
// The analysis is a source-order approximation, not a CFG dataflow: an
// early-exit branch that unlocks and returns does not clear the lock for
// the fall-through path, loops are analyzed once, and branches are
// assumed lock-balanced. That bias trades missed exotic flows for zero
// tolerance on the straight-line orderings the DESIGN.md rules describe.
// There are no exceptions and no waivers: a fresh, still-private entry
// is held to the order like any other.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Finding is one violation, at the position of the offending call.
type Finding struct {
	Pos     token.Position
	Message string
}

func (f Finding) String() string { return f.Pos.String() + ": " + f.Message }

// Check type-checks the package in dir from its non-test Go files (imports
// resolve from source through go/importer, so nothing is compiled) and
// applies both rules. It returns the findings in source order and the
// number of function bodies it summarized.
func Check(dir string) ([]Finding, int, error) {
	fset := token.NewFileSet()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, 0, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, 0, fmt.Errorf("lockorder: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	if err != nil {
		return nil, 0, fmt.Errorf("lockorder: type-checking %s: %w", dir, err)
	}
	c := &checker{fset: fset, pkg: pkg, info: info, funcs: make(map[*types.Func]*summary)}
	c.run(files)
	sort.Slice(c.findings, func(i, j int) bool {
		a, b := c.findings[i].Pos, c.findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return c.findings, len(c.funcs), nil
}

// lockClass identifies a ranked mutex by the named struct that owns it
// and its field name; every instance of the class shares the rank.
type lockClass struct {
	Type  string
	Field string
}

func (c lockClass) String() string { return c.Type + "." + c.Field }

// ranks is the DESIGN.md partial order. Lower rank must be acquired
// first; acquiring a lower rank while holding a higher one is the bug.
var ranks = map[lockClass]int{
	{"fileEntry", "truncMu"}: 0,
	{"fileEntry", "writeMu"}: 1,
	{"FS", "mu"}:             2,
	{"fileEntry", "mu"}:      3,
	{"fileEntry", "decMu"}:   4,
}

// orderDoc is appended to order-violation findings.
const orderDoc = "documented order: truncMu → writeMu → FS.mu → mu → decMu"

// ioLocks are the classes that must never be held across encode/decode
// or backend calls.
var ioLocks = map[lockClass]bool{
	{"fileEntry", "mu"}:    true,
	{"fileEntry", "decMu"}: true,
}

// codecIOFuncs are the expensive entrypoints of any package whose import
// path ends in internal/codec.
var codecIOFuncs = map[string]bool{
	"EncodeFrame": true, "EncodeFrameVersion": true, "DecodeFrame": true,
	"ScanPrefix": true, "Salvage": true, "CompactContainer": true,
	"Encode": true, "Decode": true,
}

// backendIOMethods are the backendHandle methods that reach the backing
// filesystem.
var backendIOMethods = map[string]bool{
	"ReadAt": true, "WriteAt": true, "Truncate": true, "Sync": true,
}

type summary struct {
	acquires map[lockClass]bool // transitive may-acquire set
	doesIO   bool               // transitively calls a codec/backend IO entrypoint
	callees  []*types.Func
	decl     *ast.FuncDecl
}

type checker struct {
	fset     *token.FileSet
	pkg      *types.Package
	info     *types.Info
	funcs    map[*types.Func]*summary
	findings []Finding
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	c.findings = append(c.findings, Finding{Pos: c.fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

func (c *checker) run(files []*ast.File) {
	// Pass 1: per-function direct facts (locks acquired, IO called,
	// same-package callees).
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				if obj, ok := c.info.Defs[fd.Name].(*types.Func); ok {
					c.funcs[obj] = c.collect(fd)
				}
			}
		}
	}

	// Pass 2: propagate to a fixpoint over the package call graph.
	for changed := true; changed; {
		changed = false
		for _, s := range c.funcs {
			for _, callee := range s.callees {
				cs, ok := c.funcs[callee]
				if !ok {
					continue
				}
				for cls := range cs.acquires {
					if !s.acquires[cls] {
						s.acquires[cls] = true
						changed = true
					}
				}
				if cs.doesIO && !s.doesIO {
					s.doesIO = true
					changed = true
				}
			}
		}
	}

	// Pass 3: walk each body tracking the held set.
	for _, s := range c.funcs {
		h := newHeld()
		c.stmts(s.decl.Body.List, h)
	}
}

func (c *checker) collect(fd *ast.FuncDecl) *summary {
	s := &summary{acquires: make(map[lockClass]bool), decl: fd}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cls, op, ok := c.lockOp(call); ok && (op == opLock || op == opRLock || op == opTryLock) {
			s.acquires[cls] = true
			return true
		}
		if callee := c.callee(call); callee != nil {
			if c.isCodecIO(callee) || c.isBackendIO(call, callee) {
				s.doesIO = true
			} else if callee.Pkg() == c.pkg {
				s.callees = append(s.callees, callee)
			}
		}
		return true
	})
	return s
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opTryLock
	opUnlock
)

// lockOp recognizes `x.<field>.Lock()`-shaped calls on ranked mutexes
// and classifies them.
func (c *checker) lockOp(call *ast.CallExpr) (lockClass, lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, opNone, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "TryLock", "TryRLock":
		op = opTryLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return lockClass{}, opNone, false
	}
	// The receiver must be a sync.Mutex/RWMutex field of a named struct.
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, opNone, false
	}
	tv, ok := c.info.Types[sel.X]
	if !ok || !isSyncMutex(tv.Type) {
		return lockClass{}, opNone, false
	}
	owner, ok := c.info.Types[inner.X]
	if !ok {
		return lockClass{}, opNone, false
	}
	cls := lockClass{Type: namedName(owner.Type), Field: inner.Sel.Name}
	if _, ranked := ranks[cls]; !ranked {
		return lockClass{}, opNone, false
	}
	return cls, op, true
}

func isSyncMutex(t types.Type) bool {
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

func namedName(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return ""
		}
	}
}

// callee resolves a call to its static *types.Func (package function or
// method, concrete or interface), or nil.
func (c *checker) callee(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := c.info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if selInfo, ok := c.info.Selections[fun]; ok {
			if f, ok := selInfo.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: codec.DecodeFrame(...).
		if f, ok := c.info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func (c *checker) isCodecIO(f *types.Func) bool {
	if f.Pkg() == nil || !strings.HasSuffix(f.Pkg().Path(), "internal/codec") {
		return false
	}
	if !codecIOFuncs[f.Name()] {
		return false
	}
	// Encode/Decode count only as methods (the Codec interface); the
	// rest are package-level entrypoints.
	if f.Name() == "Encode" || f.Name() == "Decode" {
		sig, ok := f.Type().(*types.Signature)
		return ok && sig.Recv() != nil
	}
	return true
}

func (c *checker) isBackendIO(call *ast.CallExpr, f *types.Func) bool {
	if !backendIOMethods[f.Name()] {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selInfo, ok := c.info.Selections[sel]
	if !ok {
		return false
	}
	return namedName(selInfo.Recv()) == "backendHandle"
}

// heldSet tracks which lock classes are held at the current program
// point of the source-order walk.
type heldSet struct {
	locks map[lockClass]*heldLock
}

type heldLock struct {
	pos    token.Pos
	sticky bool // deferred unlock: held to end of function
}

func newHeld() *heldSet { return &heldSet{locks: make(map[lockClass]*heldLock)} }

func (h *heldSet) clone() *heldSet {
	n := newHeld()
	for cls, l := range h.locks {
		cp := *l
		n.locks[cls] = &cp
	}
	return n
}

func (h *heldSet) maxRank() (lockClass, int, bool) {
	best, rank, ok := lockClass{}, -1, false
	for cls := range h.locks {
		if r := ranks[cls]; r > rank {
			best, rank, ok = cls, r, true
		}
	}
	return best, rank, ok
}

func (h *heldSet) anyIOLock() (lockClass, bool) {
	for cls := range h.locks {
		if ioLocks[cls] {
			return cls, true
		}
	}
	return lockClass{}, false
}

// stmts walks a statement list in source order, returning true when the
// list definitely terminates (return/branch/panic).
func (c *checker) stmts(list []ast.Stmt, h *heldSet) bool {
	for _, s := range list {
		if c.stmt(s, h) {
			return true
		}
	}
	return false
}

func (c *checker) stmt(s ast.Stmt, h *heldSet) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		c.expr(s.X, h)
		return isPanic(s.X)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, h)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		c.deferStmt(s, h)
		return false
	case *ast.GoStmt:
		// A spawned goroutine starts with its own empty lock stack.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.stmts(lit.Body.List, newHeld())
		}
		return false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, h)
		}
		return false
	case *ast.IfStmt:
		return c.ifStmt(s, h)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, h)
		}
		if s.Cond != nil {
			c.expr(s.Cond, h)
		}
		c.stmts(s.Body.List, h.clone())
		return false
	case *ast.RangeStmt:
		c.expr(s.X, h)
		c.stmts(s.Body.List, h.clone())
		return false
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, h)
		}
		if s.Tag != nil {
			c.expr(s.Tag, h)
		}
		for _, cc := range s.Body.List {
			c.stmts(cc.(*ast.CaseClause).Body, h.clone())
		}
		return false
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			c.stmts(cc.(*ast.CaseClause).Body, h.clone())
		}
		return false
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			c.stmts(cc.(*ast.CommClause).Body, h.clone())
		}
		return false
	case *ast.BlockStmt:
		return c.stmts(s.List, h)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, h)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.expr(e, h)
					}
				}
			}
		}
		return false
	case *ast.SendStmt:
		c.expr(s.Value, h)
		return false
	}
	return false
}

func (c *checker) deferStmt(s *ast.DeferStmt, h *heldSet) {
	if cls, op, ok := c.lockOp(s.Call); ok && op == opUnlock {
		if l, held := h.locks[cls]; held {
			l.sticky = true
		}
		return
	}
	// A deferred closure runs at return with an unknowable held set;
	// check its body against an empty one for intra-closure violations.
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		c.stmts(lit.Body.List, newHeld())
	}
}

// ifStmt handles branches with the balanced-branch assumption, plus the
// two TryLock conditional idioms.
func (c *checker) ifStmt(s *ast.IfStmt, h *heldSet) bool {
	if s.Init != nil {
		c.stmt(s.Init, h)
	}

	// if !x.TryLock() { <fail path> }  — lock held after the if when the
	// fail path terminates.
	if un, ok := s.Cond.(*ast.UnaryExpr); ok && un.Op == token.NOT {
		if call, ok := un.X.(*ast.CallExpr); ok {
			if cls, op, ok := c.lockOp(call); ok && op == opTryLock {
				term := c.stmts(s.Body.List, h.clone())
				if term && s.Else == nil {
					c.acquire(cls, call.Pos(), h)
				}
				return false
			}
		}
	}
	// if x.TryLock() { <locked path> }
	if call, ok := s.Cond.(*ast.CallExpr); ok {
		if cls, op, ok := c.lockOp(call); ok && op == opTryLock {
			bodyH := h.clone()
			c.acquire(cls, call.Pos(), bodyH)
			c.stmts(s.Body.List, bodyH)
			if s.Else != nil {
				c.stmt(s.Else, h.clone())
			}
			return false
		}
	}

	c.expr(s.Cond, h)
	bodyH := h.clone()
	bodyTerm := c.stmts(s.Body.List, bodyH)
	if s.Else == nil {
		if !bodyTerm {
			// Balanced-branch assumption: keep the pre-branch set.
			return false
		}
		return false // early-exit branch: fall-through keeps h
	}
	elseH := h.clone()
	elseTerm := c.stmt(s.Else, elseH)
	switch {
	case bodyTerm && elseTerm:
		return true
	case bodyTerm:
		*h = *elseH
	case elseTerm:
		*h = *bodyH
	}
	return false
}

// expr scans an expression for lock events and checked calls.
func (c *checker) expr(e ast.Expr, h *heldSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Synchronous callback (sort.Slice etc.): body sees the
			// current held set; a mis-ordered acquire inside still counts.
			c.stmts(n.Body.List, h.clone())
			return false
		case *ast.CallExpr:
			c.call(n, h)
		}
		return true
	})
}

func (c *checker) call(call *ast.CallExpr, h *heldSet) {
	if cls, op, ok := c.lockOp(call); ok {
		switch op {
		case opLock, opRLock, opTryLock:
			c.acquire(cls, call.Pos(), h)
		case opUnlock:
			if l, held := h.locks[cls]; held && !l.sticky {
				delete(h.locks, cls)
			}
		}
		return
	}
	callee := c.callee(call)
	if callee == nil {
		return
	}
	if cls, held := h.anyIOLock(); held && (c.isCodecIO(callee) || c.isBackendIO(call, callee)) {
		c.reportf(call.Pos(),
			"call to %s while holding %s: encode/decode and backend IO must run outside mu/decMu",
			callee.Name(), cls)
		return
	}
	if s, ok := c.funcs[callee]; ok {
		c.checkCalleeSummary(call, callee, s, h)
	}
}

func (c *checker) checkCalleeSummary(call *ast.CallExpr, callee *types.Func, s *summary, h *heldSet) {
	heldCls, heldRank, any := h.maxRank()
	if any {
		for cls := range s.acquires {
			if h.locks[cls] == nil && ranks[cls] < heldRank {
				c.reportf(call.Pos(),
					"call to %s may acquire %s (rank %d) while holding %s (rank %d); %s",
					callee.Name(), cls, ranks[cls], heldCls, heldRank, orderDoc)
			}
		}
	}
	if cls, held := h.anyIOLock(); held && s.doesIO {
		c.reportf(call.Pos(),
			"call to %s while holding %s: callee transitively performs encode/decode or backend IO",
			callee.Name(), cls)
	}
}

// acquire reports order violations of a direct acquisition, then marks
// the class held.
func (c *checker) acquire(cls lockClass, pos token.Pos, h *heldSet) {
	rank := ranks[cls]
	if _, held := h.locks[cls]; held {
		c.reportf(pos, "re-acquires %s already held (self-deadlock on the same instance)", cls)
	}
	for other, l := range h.locks {
		if ranks[other] > rank {
			c.reportf(pos,
				"acquires %s (rank %d) while holding %s (rank %d, locked at %s); %s",
				cls, rank, other, ranks[other], c.fset.Position(l.pos), orderDoc)
		}
	}
	h.locks[cls] = &heldLock{pos: pos}
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
