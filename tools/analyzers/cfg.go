package analyzers

// Control-flow graph construction over go/ast, for the flow-sensitive
// passes (cacheinval, journalstate).
// The builder is deliberately a miniature of golang.org/x/tools/go/cfg
// (the build container has no module proxy): statements are grouped
// into basic blocks connected by branch edges, with
//
//   - if/for/range/switch/type-switch/select lowered to explicit edges,
//   - short-circuit conditions (&&, ||, !) split into one block per
//     leaf condition, so passes can refine facts on the true and false
//     edge of each leaf separately (the "branch on the Swapped flag"
//     idiom),
//   - break/continue (labeled and bare), goto, and fallthrough resolved
//     to their target blocks,
//   - return terminating its block (recorded in Block.Ret), and a
//     function body that can fall off the end recorded in CFG.Fall,
//   - defer statements appearing in the flow at their registration
//     point.
//
// Function literals are NOT inlined: a FuncLit is an opaque value in
// the enclosing function's flow, and callers analyze each literal body
// as its own unit.

import "go/ast"

// Block is one basic block: a sequence of nodes executed in order,
// ended either by an unconditional jump (Succs), a two-way branch on a
// leaf condition (Cond with TSucc/FSucc), or a return (Ret).
type Block struct {
	Index int
	Nodes []ast.Node // statements and case expressions, in order

	// Cond is the leaf branch condition closing this block, or nil.
	// When set, TSucc/FSucc are the true and false successors and
	// Succs is empty. The condition is evaluated as the last action of
	// the block (it is not duplicated in Nodes).
	Cond  ast.Expr
	TSucc *Block
	FSucc *Block

	// Succs are the unconditional successors (empty after a return).
	Succs []*Block

	// Ret is the return statement terminating the block, if any. The
	// statement also appears as the last entry of Nodes.
	Ret *ast.ReturnStmt
}

// succs returns all successors regardless of edge kind.
func (b *Block) succs() []*Block {
	if b.Cond != nil {
		return []*Block{b.TSucc, b.FSucc}
	}
	return b.Succs
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Blocks []*Block
	// Fall is the block whose end is the implicit return at the bottom
	// of the body, or nil when every path ends in an explicit
	// return/jump.
	Fall *Block
}

// Exits visits every function exit: each reachable block ending in an
// explicit return (ret != nil) and the implicit fall-off-the-end exit
// (ret == nil).
func (g *CFG) Exits(fn func(b *Block, ret *ast.ReturnStmt)) {
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if b.Ret != nil && reach[b] {
			fn(b, b.Ret)
		}
	}
	if g.Fall != nil && reach[g.Fall] {
		fn(g.Fall, nil)
	}
}

// Reachable returns the set of blocks reachable from Entry.
func (g *CFG) Reachable() map[*Block]bool {
	reach := make(map[*Block]bool, len(g.Blocks))
	var visit func(b *Block)
	visit = func(b *Block) {
		if b == nil || reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.succs() {
			visit(s)
		}
	}
	visit(g.Entry)
	return reach
}

type loopTargets struct {
	brk, cont *Block
}

type cfgBuilder struct {
	g   *CFG
	cur *Block

	loops    []loopTargets // continue targets (innermost last)
	breaks   []*Block      // break targets: loops AND switch/select, nesting order
	labeled  map[string]loopTargets
	gotos    map[string]*Block
	fallNext *Block // fallthrough target inside a switch case
}

// BuildCFG constructs the CFG of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:       &CFG{},
		labeled: make(map[string]loopTargets),
		gotos:   make(map[string]*Block),
	}
	b.g.Entry = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur.Ret == nil && b.cur.Cond == nil && len(b.cur.Succs) == 0 {
		if b.g.Reachable()[b.cur] {
			b.g.Fall = b.cur
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an unconditional edge from the current block to `to`,
// unless the current block is already terminated.
func (b *cfgBuilder) jump(to *Block) {
	if b.cur.Ret == nil && b.cur.Cond == nil && len(b.cur.Succs) == 0 {
		b.cur.Succs = append(b.cur.Succs, to)
	}
}

// edge adds an additional unconditional edge (multi-way dispatch),
// unless the source block is terminated by a return or condition.
func (b *cfgBuilder) edge(from, to *Block) {
	if from.Ret == nil && from.Cond == nil {
		from.Succs = append(from.Succs, to)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body, "")
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body, "")
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.cur.Ret = s
		b.cur = b.newBlock() // anything after is dead
	case *ast.BranchStmt:
		b.branchStmt(s)
	default:
		// Plain statement: assignment, expression, declaration, send,
		// go, inc/dec, empty.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Init)
	}
	then, els, done := b.newBlock(), b.newBlock(), b.newBlock()
	b.cond(s.Cond, then, els)
	b.cur = then
	b.stmt(s.Body)
	b.jump(done)
	b.cur = els
	if s.Else != nil {
		b.stmt(s.Else)
	}
	b.jump(done)
	b.cur = done
}

// cond lowers a boolean expression into branch edges ending the current
// block: short-circuit operators split into one block per leaf
// condition, negation swaps the targets. On return the current block is
// undefined; callers must reset b.cur.
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op.String() == "!" {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op.String() {
		case "&&":
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case "||":
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	}
	if b.cur.Ret != nil || b.cur.Cond != nil {
		// Current block already terminated (dead code); park the
		// condition in a fresh unreachable block.
		b.cur = b.newBlock()
	}
	b.cur.Cond = e
	b.cur.TSucc = t
	b.cur.FSucc = f
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.loops = append(b.loops, loopTargets{brk: brk, cont: cont})
	b.breaks = append(b.breaks, brk)
	if label != "" {
		b.labeled[label] = loopTargets{brk: brk, cont: cont}
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.loops = b.loops[:len(b.loops)-1]
	b.breaks = b.breaks[:len(b.breaks)-1]
	if label != "" {
		delete(b.labeled, label)
	}
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Init)
	}
	head, body, post, done := b.newBlock(), b.newBlock(), b.newBlock(), b.newBlock()
	b.jump(head)
	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.jump(body)
	}
	b.pushLoop(label, done, post)
	b.cur = body
	b.stmt(s.Body)
	b.jump(post)
	b.popLoop(label)
	b.cur = post
	if s.Post != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Post)
	}
	b.jump(head)
	b.cur = done
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head, body, done := b.newBlock(), b.newBlock(), b.newBlock()
	b.jump(head)
	b.cur = head
	// Only the ranged expression is evaluated at the head. Appending the
	// RangeStmt itself would re-expose the whole loop body to passes'
	// shallow subtree scans, double-counting every event in it.
	b.cur.Nodes = append(b.cur.Nodes, s.X)
	b.edge(head, body)
	b.edge(head, done)
	b.pushLoop(label, done, head)
	b.cur = body
	b.stmt(s.Body)
	b.jump(head)
	b.popLoop(label)
	b.cur = done
}

func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, label string) {
	if init != nil {
		b.cur.Nodes = append(b.cur.Nodes, init)
	}
	if assign != nil {
		b.cur.Nodes = append(b.cur.Nodes, assign)
	}
	if tag != nil {
		b.cur.Nodes = append(b.cur.Nodes, tag)
	}
	dispatch := b.cur
	done := b.newBlock()
	if label != "" {
		b.labeled[label] = loopTargets{brk: done}
	}
	b.breaks = append(b.breaks, done)

	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		caseBlocks = append(caseBlocks, b.newBlock())
	}
	for _, blk := range caseBlocks {
		b.edge(dispatch, blk)
	}
	if !hasDefault {
		b.edge(dispatch, done)
	}
	savedFall := b.fallNext
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		b.fallNext = nil
		if i+1 < len(caseBlocks) {
			b.fallNext = caseBlocks[i+1]
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.fallNext = savedFall
	b.breaks = b.breaks[:len(b.breaks)-1]
	if label != "" {
		delete(b.labeled, label)
	}
	b.cur = done
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	dispatch := b.cur
	done := b.newBlock()
	b.breaks = append(b.breaks, done)
	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock()
		b.edge(dispatch, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.cur.Nodes = append(b.cur.Nodes, cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	if !any {
		b.cur = dispatch
		b.jump(done)
	}
	b.cur = done
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	// If a goto to this label was already seen, its placeholder block
	// becomes the label's entry; otherwise make one so later gotos can
	// target it.
	target, ok := b.gotos[name]
	if !ok {
		target = b.newBlock()
		b.gotos[name] = target
	}
	b.jump(target)
	b.cur = target
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, name)
	case *ast.SwitchStmt:
		b.switchStmt(inner.Init, inner.Tag, nil, inner.Body, name)
	case *ast.TypeSwitchStmt:
		b.switchStmt(inner.Init, nil, inner.Assign, inner.Body, name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			if t, ok := b.labeled[s.Label.Name]; ok && t.brk != nil {
				b.jump(t.brk)
			}
		} else if n := len(b.breaks); n > 0 {
			b.jump(b.breaks[n-1])
		}
	case "continue":
		if s.Label != nil {
			if t, ok := b.labeled[s.Label.Name]; ok && t.cont != nil {
				b.jump(t.cont)
			}
		} else if n := len(b.loops); n > 0 {
			b.jump(b.loops[n-1].cont)
		}
	case "goto":
		if s.Label != nil {
			target, ok := b.gotos[s.Label.Name]
			if !ok {
				target = b.newBlock()
				b.gotos[s.Label.Name] = target
			}
			b.jump(target)
		}
	case "fallthrough":
		if b.fallNext != nil {
			b.jump(b.fallNext)
		}
	}
	b.cur = b.newBlock() // anything after is dead
}
