package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural dataflow layer the flow-sensitive
// analyzers (wsescape, gocapture) consume instead of raw AST walks
// (DESIGN.md §16). A FuncIR is a per-function control-flow graph over the
// function's statements, plus def-use chains resolved through go/types
// objects and a reaching-definitions solution over the CFG. On top of
// those, SolveDefs runs an analyzer-supplied monotone transfer function to
// a fixpoint — wsescape's escape lattice is one instance of it.
//
// IRs are built lazily (per function, on first request) and memoized on
// the run's Index, so a whole-module pass type-checks once and builds IR
// only for the functions an analyzer actually inspects.
//
// Construction is total: any parseable function yields an IR without
// panicking, even with incomplete type information (FuzzLintIR pins
// this over mutated fixture syntax).

// Block is one basic block of a FuncIR: a maximal straight-line run of
// statements with edges to its possible successors.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []*Block

	// Reaching-definitions state (bitsets indexed by Def.Index),
	// populated by solveReaching.
	in, out defSet
}

// DefKind says how a definition binds its object.
type DefKind int

const (
	// DefAssign is `x = rhs` or `x := rhs` (also one leg of a
	// multi-assign, with TupleIndex saying which).
	DefAssign DefKind = iota
	// DefParam is a parameter, receiver or named result: defined at
	// entry, with no RHS expression.
	DefParam
	// DefDecl is `var x T` with no initializer (zero value), or a
	// range/type-switch binding; RHS may be nil or the range operand.
	DefDecl
	// DefIncDec is x++ / x--.
	DefIncDec
)

// Def is one definition of a local object. For multi-value assignments
// (x, y := f()) each LHS gets its own Def sharing the RHS call with its
// TupleIndex recording the result slot.
type Def struct {
	Index      int
	Obj        types.Object
	Kind       DefKind
	Rhs        ast.Expr // nil for DefParam / zero-value DefDecl / DefIncDec
	TupleIndex int      // result slot when Rhs is a multi-value call
	Stmt       ast.Stmt // the defining statement (nil for DefParam)
	Block      *Block   // block holding Stmt (entry block for DefParam)
	Pos        token.Pos
}

// FuncIR is the dataflow IR of one function: its CFG, the definitions of
// every function-local object, and per-statement reaching-definition
// lookups.
type FuncIR struct {
	Decl   *ast.FuncDecl
	Entry  *Block
	Blocks []*Block
	Defs   []*Def

	defsOf   map[types.Object][]*Def
	stmtPos  map[ast.Stmt]stmtSlot
	local    map[types.Object]bool
	useIndex map[*ast.Ident]types.Object
}

type stmtSlot struct {
	block *Block
	index int
}

// defSet is a bitset over Def indices.
type defSet []uint64

func newDefSet(n int) defSet { return make(defSet, (n+63)/64) }

func (s defSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s defSet) add(i int)      { s[i/64] |= 1 << (i % 64) }

func (s defSet) orInto(t defSet) bool {
	changed := false
	for i := range s {
		if v := t[i] | s[i]; v != t[i] {
			t[i] = v
			changed = true
		}
	}
	return changed
}

func (s defSet) clone() defSet {
	c := make(defSet, len(s))
	copy(c, s)
	return c
}

// irBuilder holds the in-progress CFG: the current block being appended
// to, and the break/continue/label targets in scope.
type irBuilder struct {
	ir           *FuncIR
	cur          *Block
	breaks       []*Block // innermost-last break targets (loops and switches)
	conts        []*Block // innermost-last continue targets (loops only)
	labels       map[string]*labelTargets
	labelPending []pendingLabel
	exit         *Block
}

type labelTargets struct {
	brk, cont *Block
}

// BuildFuncIR constructs the IR for fd. info may be incomplete (the fuzz
// harness builds IR over untyped syntax); object resolution then degrades
// to "no local defs" for the unresolved names, never to a panic. A nil
// body yields an IR with a single empty block.
func BuildFuncIR(fd *ast.FuncDecl, info *types.Info) *FuncIR {
	ir := &FuncIR{
		Decl:    fd,
		defsOf:  make(map[types.Object][]*Def),
		stmtPos: make(map[ast.Stmt]stmtSlot),
		local:   make(map[types.Object]bool),
	}
	b := &irBuilder{ir: ir, labels: make(map[string]*labelTargets)}
	entry := b.newBlock()
	ir.Entry = entry
	b.cur = entry
	b.exit = b.newBlock() // shared sink for returns; no statements

	// Parameters, receivers and named results are definitions at entry.
	if info != nil {
		addFieldDefs := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					if obj := info.Defs[name]; obj != nil {
						ir.addDef(&Def{Obj: obj, Kind: DefParam, Block: entry, Pos: name.Pos()})
					}
				}
			}
		}
		addFieldDefs(fd.Recv)
		addFieldDefs(fd.Type.Params)
		addFieldDefs(fd.Type.Results)
	}

	if fd.Body != nil {
		b.stmts(fd.Body.List, info)
	}
	// Fallthrough off the end of the body flows to exit.
	b.edge(b.cur, b.exit)

	ir.indexUses(info)
	solveReaching(ir)
	return ir
}

func (b *irBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.ir.Blocks)}
	b.ir.Blocks = append(b.ir.Blocks, blk)
	return blk
}

func (b *irBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// append records stmt in the current block (creating one if control just
// branched away) and registers its position for reaching-def lookups.
func (b *irBuilder) append(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable code still gets a block
	}
	b.ir.stmtPos[s] = stmtSlot{block: b.cur, index: len(b.cur.Stmts)}
	b.cur.Stmts = append(b.cur.Stmts, s)
}

func (b *irBuilder) stmts(list []ast.Stmt, info *types.Info) {
	for _, s := range list {
		b.stmt(s, info)
	}
}

// stmt threads one statement through the CFG, splitting blocks at every
// branch. Statements with interesting internals (if/for/switch/...) are
// recorded in the block where their header executes, so defs in their
// init clauses land at the right point.
func (b *irBuilder) stmt(s ast.Stmt, info *types.Info) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List, info)

	case *ast.IfStmt:
		b.append(s)
		b.collectDefs(s, info) // the init clause's defs land in the header block
		condBlock := b.cur
		thenBlock := b.newBlock()
		b.edge(condBlock, thenBlock)
		var elseEntry *Block
		if s.Else != nil {
			elseEntry = b.newBlock()
			b.edge(condBlock, elseEntry)
		}
		join := b.newBlock()
		if s.Else == nil {
			b.edge(condBlock, join)
		}
		b.cur = thenBlock
		b.stmts(s.Body.List, info)
		b.edge(b.cur, join)
		if s.Else != nil {
			b.cur = elseEntry
			b.stmt(s.Else, info)
			b.edge(b.cur, join)
		}
		b.cur = join

	case *ast.ForStmt:
		b.append(s)
		b.collectDefs(s.Init, info)
		head := b.newBlock()
		b.edge(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		if s.Cond == nil {
			// for {} only leaves via break; keep the head→after edge anyway —
			// an over-approximation that costs precision, not soundness.
		}
		post := b.newBlock()
		b.pushLoop(after, post, s)
		b.cur = body
		b.stmts(s.Body.List, info)
		b.edge(b.cur, post)
		b.popLoop()
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post, info)
		}
		b.edge(b.cur, head)
		b.cur = after

	case *ast.RangeStmt:
		b.append(s)
		b.collectDefs(s, info)
		head := b.newBlock()
		b.edge(b.cur, head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.pushLoop(after, head, s)
		b.cur = body
		b.stmts(s.Body.List, info)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.append(s)
		b.collectDefs(s, info)
		header := b.cur
		after := b.newBlock()
		var body *ast.BlockStmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			body = sw.Body
		case *ast.TypeSwitchStmt:
			body = sw.Body
		case *ast.SelectStmt:
			body = sw.Body
		}
		b.pushSwitch(after, s)
		sawDefault := false
		var prevFall *Block // block that ended in fallthrough
		for _, cs := range body.List {
			var caseBody []ast.Stmt
			switch cc := cs.(type) {
			case *ast.CaseClause:
				caseBody = cc.Body
				if cc.List == nil {
					sawDefault = true
				}
			case *ast.CommClause:
				caseBody = cc.Body
				if cc.Comm == nil {
					sawDefault = true
				}
			default:
				continue
			}
			caseBlock := b.newBlock()
			b.edge(header, caseBlock)
			if prevFall != nil {
				b.edge(prevFall, caseBlock)
				prevFall = nil
			}
			b.cur = caseBlock
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm != nil {
				b.stmt(cc.Comm, info)
			}
			b.stmts(caseBody, info)
			if n := len(caseBody); n > 0 {
				if br, ok := caseBody[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					prevFall = b.cur
					continue
				}
			}
			b.edge(b.cur, after)
		}
		if prevFall != nil {
			b.edge(prevFall, after)
		}
		if !sawDefault {
			b.edge(header, after)
		}
		b.popSwitch()
		b.cur = after

	case *ast.ReturnStmt:
		b.append(s)
		b.edge(b.cur, b.exit)
		b.cur = nil // code after a return starts a fresh (unreachable) block

	case *ast.BranchStmt:
		b.append(s)
		switch s.Tok {
		case token.BREAK:
			b.edge(b.cur, b.branchTarget(s.Label, true))
			b.cur = nil
		case token.CONTINUE:
			b.edge(b.cur, b.branchTarget(s.Label, false))
			b.cur = nil
		case token.GOTO:
			// Rare in this tree; approximate as an exit edge so the block
			// still terminates (precision loss only).
			b.edge(b.cur, b.exit)
			b.cur = nil
		case token.FALLTHROUGH:
			// handled by the switch lowering
		}

	case *ast.LabeledStmt:
		// Give the labeled loop/switch named targets, then lower the inner
		// statement normally.
		lt := &labelTargets{}
		b.labels[s.Label.Name] = lt
		b.labelPending = append(b.labelPending, pendingLabel{name: s.Label.Name, stmt: s.Stmt})
		b.stmt(s.Stmt, info)

	case *ast.DeferStmt, *ast.GoStmt, *ast.ExprStmt, *ast.SendStmt, *ast.EmptyStmt:
		b.append(s)

	case *ast.AssignStmt:
		b.append(s)
		b.collectDefs(s, info)

	case *ast.IncDecStmt:
		b.append(s)
		b.collectDefs(s, info)

	case *ast.DeclStmt:
		b.append(s)
		b.collectDefs(s, info)

	default:
		if s != nil {
			b.append(s)
		}
	}
}

type pendingLabel struct {
	name string
	stmt ast.Stmt
}

// pushLoop/popLoop maintain the break/continue target stacks; a label
// pending on the statement binds the same targets under its name.
func (b *irBuilder) pushLoop(brk, cont *Block, stmt ast.Stmt) {
	b.breaks = append(b.breaks, brk)
	b.conts = append(b.conts, cont)
	b.bindPending(stmt, brk, cont)
}

func (b *irBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}

func (b *irBuilder) pushSwitch(brk *Block, stmt ast.Stmt) {
	b.breaks = append(b.breaks, brk)
	b.bindPending(stmt, brk, nil)
}

func (b *irBuilder) popSwitch() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

func (b *irBuilder) bindPending(stmt ast.Stmt, brk, cont *Block) {
	for _, p := range b.labelPending {
		if p.stmt == stmt {
			if lt := b.labels[p.name]; lt != nil {
				lt.brk, lt.cont = brk, cont
			}
		}
	}
}

func (b *irBuilder) branchTarget(label *ast.Ident, isBreak bool) *Block {
	if label != nil {
		if lt := b.labels[label.Name]; lt != nil {
			if isBreak && lt.brk != nil {
				return lt.brk
			}
			if !isBreak && lt.cont != nil {
				return lt.cont
			}
		}
		return b.exit // unresolved label: approximate
	}
	if isBreak {
		if n := len(b.breaks); n > 0 {
			return b.breaks[n-1]
		}
	} else if n := len(b.conts); n > 0 {
		return b.conts[n-1]
	}
	return b.exit // break/continue outside any loop: broken code, stay total
}

// collectDefs extracts the definitions a statement performs. Only
// function-local objects (Defs entries in info, declared inside fd) are
// tracked; assignments to package-level vars or fields are stores, not
// defs, and the analyzers inspect those separately.
func (b *irBuilder) collectDefs(s ast.Stmt, info *types.Info) {
	if s == nil || info == nil {
		return
	}
	switch s := s.(type) {
	case *ast.AssignStmt:
		multi := len(s.Lhs) != len(s.Rhs)
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil || id.Name == "_" {
				continue
			}
			d := &Def{Obj: obj, Kind: DefAssign, Stmt: s, Pos: id.Pos()}
			if multi {
				d.Rhs = s.Rhs[0]
				d.TupleIndex = i
			} else {
				d.Rhs = s.Rhs[i]
			}
			b.placeDef(d)
		}
	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				b.placeDef(&Def{Obj: obj, Kind: DefIncDec, Stmt: s, Pos: id.Pos()})
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			multi := len(vs.Values) == 1 && len(vs.Names) > 1
			for i, name := range vs.Names {
				obj := info.Defs[name]
				if obj == nil || name.Name == "_" {
					continue
				}
				d := &Def{Obj: obj, Kind: DefDecl, Stmt: s, Pos: name.Pos()}
				switch {
				case multi:
					d.Rhs = vs.Values[0]
					d.TupleIndex = i
					d.Kind = DefAssign
				case i < len(vs.Values):
					d.Rhs = vs.Values[i]
					d.Kind = DefAssign
				}
				b.placeDef(d)
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{s.Key, s.Value} {
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil || id.Name == "_" {
				continue
			}
			// The range operand is the def's provenance: ranging over a
			// tainted container yields tainted element bindings (the
			// analyzers' eval decides, seeing Kind == DefDecl).
			b.placeDef(&Def{Obj: obj, Kind: DefDecl, Rhs: s.X, Stmt: s, Pos: id.Pos()})
		}
	case *ast.TypeSwitchStmt:
		b.collectDefs(s.Init, info)
		// `switch v := x.(type)`: one object per clause in info.Implicits,
		// but a single syntactic def suffices for def-use purposes.
		if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if obj := info.Defs[id]; obj != nil {
					b.placeDef(&Def{Obj: obj, Kind: DefDecl, Rhs: as.Rhs[0], Stmt: s, Pos: id.Pos()})
				}
			}
		}
	case *ast.IfStmt:
		b.collectDefs(s.Init, info)
	case *ast.SwitchStmt:
		b.collectDefs(s.Init, info)
	}
}

// placeDef registers d in the current block. Objects declared outside the
// function (package-level vars reached through the Uses fallback) are not
// defs — stores to them are escapes the analyzers inspect at the store
// site, and tracking them here would misclassify them as function-local.
func (b *irBuilder) placeDef(d *Def) {
	if decl := b.ir.Decl; decl != nil && d.Obj != nil {
		if d.Obj.Pos() < decl.Pos() || d.Obj.Pos() > decl.End() {
			return
		}
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	d.Block = b.cur
	b.ir.addDef(d)
}

func (ir *FuncIR) addDef(d *Def) {
	d.Index = len(ir.Defs)
	ir.Defs = append(ir.Defs, d)
	ir.defsOf[d.Obj] = append(ir.defsOf[d.Obj], d)
	ir.local[d.Obj] = true
}

// solveReaching runs the classic reaching-definitions worklist: out[b] =
// gen[b] ∪ (in[b] − kill[b]) with in[b] = ∪ out[preds]. Gen/kill are
// computed per block in statement order (a later def of the same object
// kills earlier ones).
func solveReaching(ir *FuncIR) {
	n := len(ir.Defs)
	for _, blk := range ir.Blocks {
		blk.in = newDefSet(n)
		blk.out = newDefSet(n)
	}
	if n == 0 {
		return
	}
	// Param defs are live at entry.
	for _, d := range ir.Defs {
		if d.Kind == DefParam {
			ir.Entry.in.add(d.Index)
		}
	}
	preds := make(map[*Block][]*Block)
	for _, blk := range ir.Blocks {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], blk)
		}
	}
	// Iterate to fixpoint; block count is small, so a simple sweep loop
	// beats maintaining a worklist.
	for changed := true; changed; {
		changed = false
		for _, blk := range ir.Blocks {
			for _, p := range preds[blk] {
				if p.out.orInto(blk.in) {
					changed = true
				}
			}
			out := ir.transferBlock(blk, blk.in)
			if out.orInto(blk.out) {
				changed = true
			}
		}
	}
}

// transferBlock applies the block's defs to the incoming set, returning
// the set at block exit.
func (ir *FuncIR) transferBlock(blk *Block, in defSet) defSet {
	cur := in.clone()
	for _, d := range ir.Defs {
		if d.Block == blk && d.Kind != DefParam {
			ir.kill(cur, d.Obj)
			cur.add(d.Index)
		}
	}
	return cur
}

func (ir *FuncIR) kill(s defSet, obj types.Object) {
	for _, d := range ir.defsOf[obj] {
		if s.has(d.Index) {
			s[d.Index/64] &^= 1 << (d.Index % 64)
		}
	}
}

// IsLocal reports whether obj is a function-local object this IR tracks
// definitions for (params, receivers, and vars declared in the body).
func (ir *FuncIR) IsLocal(obj types.Object) bool { return ir.local[obj] }

// DefsOf returns every definition of obj in the function.
func (ir *FuncIR) DefsOf(obj types.Object) []*Def { return ir.defsOf[obj] }

// ReachingAt returns the definitions of obj that reach the start of stmt
// (the statement must be one the IR recorded; otherwise every def of obj
// is returned — an over-approximation, never an omission).
func (ir *FuncIR) ReachingAt(obj types.Object, stmt ast.Stmt) []*Def {
	slot, ok := ir.stmtPos[stmt]
	if !ok {
		return ir.defsOf[obj]
	}
	cur := slot.block.in.clone()
	// Apply defs of earlier statements in the same block.
	for _, d := range ir.Defs {
		if d.Block == slot.block && d.Kind != DefParam {
			if ds, ok2 := ir.stmtPos[d.Stmt]; ok2 && ds.index < slot.index {
				ir.kill(cur, d.Obj)
				cur.add(d.Index)
			}
		}
	}
	var out []*Def
	for _, d := range ir.defsOf[obj] {
		if cur.has(d.Index) {
			out = append(out, d)
		}
	}
	return out
}

// EnclosingStmt returns the innermost recorded statement containing pos,
// or nil. Analyzers use it to anchor expression positions to CFG slots.
func (ir *FuncIR) EnclosingStmt(pos token.Pos) ast.Stmt {
	var best ast.Stmt
	for s := range ir.stmtPos {
		if s.Pos() <= pos && pos <= s.End() {
			if best == nil || (s.Pos() >= best.Pos() && s.End() <= best.End()) {
				best = s
			}
		}
	}
	return best
}

// StmtReaches reports whether control can flow from (just after) stmt a
// to stmt b: either b appears later in a's block, or b's block is
// CFG-reachable from a's block's successors. Statements the IR did not
// record answer true (over-approximate).
func (ir *FuncIR) StmtReaches(a, b ast.Stmt) bool {
	sa, oka := ir.stmtPos[a]
	sb, okb := ir.stmtPos[b]
	if !oka || !okb {
		return true
	}
	if sa.block == sb.block {
		if sb.index > sa.index {
			return true
		}
		// Same block, earlier position: reachable only through a cycle.
	}
	seen := make([]bool, len(ir.Blocks))
	var stack []*Block
	stack = append(stack, sa.block.Succs...)
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == nil || seen[blk.Index] {
			continue
		}
		seen[blk.Index] = true
		if blk == sb.block {
			return true
		}
		stack = append(stack, blk.Succs...)
	}
	return false
}

// SolveDefs computes a boolean abstract value ("tainted") for every
// definition by iterating an analyzer-supplied transfer function to a
// fixpoint. eval is called with a definition and a lookup that resolves
// an identifier use to the join (OR) of the values of the definitions
// reaching the use's statement; it must be monotone in the lookup (more
// tainted inputs never make the output clean), which guarantees
// termination. Typical instance: the wsescape escape lattice (seed:
// RunWS calls; launder: Clone).
func (ir *FuncIR) SolveDefs(eval func(d *Def, lookup func(id *ast.Ident) bool) bool) map[*Def]bool {
	val := make(map[*Def]bool, len(ir.Defs))
	lookupAt := func(stmt ast.Stmt) func(id *ast.Ident) bool {
		return func(id *ast.Ident) bool {
			obj := ir.useObject(id)
			if obj == nil || !ir.local[obj] {
				return false
			}
			var defs []*Def
			if stmt != nil {
				defs = ir.ReachingAt(obj, stmt)
			} else {
				defs = ir.defsOf[obj]
			}
			for _, d := range defs {
				if val[d] {
					return true
				}
			}
			return false
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range ir.Defs {
			if val[d] {
				continue // monotone: once tainted, stays tainted
			}
			if eval(d, lookupAt(d.Stmt)) {
				val[d] = true
				changed = true
			}
		}
	}
	return val
}

// LookupAt returns a use-resolution function at stmt over a previously
// solved def valuation: lookup(id) is the OR of values of the defs of
// id's object reaching stmt. Non-local identifiers answer false.
func (ir *FuncIR) LookupAt(val map[*Def]bool, stmt ast.Stmt) func(id *ast.Ident) bool {
	return func(id *ast.Ident) bool {
		obj := ir.useObject(id)
		if obj == nil || !ir.local[obj] {
			return false
		}
		var defs []*Def
		if stmt != nil {
			defs = ir.ReachingAt(obj, stmt)
		} else {
			defs = ir.defsOf[obj]
		}
		for _, d := range defs {
			if val[d] {
				return true
			}
		}
		return false
	}
}

// useObject resolves an identifier to its object through whichever side
// of the Defs/Uses maps knows it. The IR has no Info pointer of its own;
// objects were interned at def-collection time, so resolving uses needs
// the same maps — they are reachable through the defs' objects' packages
// only in principle, so the builder memoizes an ident→object index.
func (ir *FuncIR) useObject(id *ast.Ident) types.Object {
	if obj, ok := ir.useIndex[id]; ok {
		return obj
	}
	return nil
}

// indexUses walks the function body once, recording the object of every
// identifier the type-checker resolved. Called at build time.
func (ir *FuncIR) indexUses(info *types.Info) {
	ir.useIndex = make(map[*ast.Ident]types.Object)
	if info == nil || ir.Decl == nil {
		return
	}
	ast.Inspect(ir.Decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				ir.useIndex[id] = obj
			} else if obj := info.Defs[id]; obj != nil {
				ir.useIndex[id] = obj
			}
		}
		return true
	})
}
