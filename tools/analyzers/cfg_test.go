package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses `src` as the body of a function and returns its CFG.
func parseBody(t *testing.T, src string) (*CFG, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", "package x\nfunc f() {\n"+src+"\n}", 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fd.Body), fset
}

func countExits(g *CFG) (rets, falls int) {
	g.Exits(func(b *Block, ret *ast.ReturnStmt) {
		if ret != nil {
			rets++
		} else {
			falls++
		}
	})
	return
}

func TestCFGLinear(t *testing.T) {
	g, _ := parseBody(t, "a := 1\nb := 2\n_ = a + b")
	rets, falls := countExits(g)
	if rets != 0 || falls != 1 {
		t.Fatalf("linear body: rets=%d falls=%d, want 0/1", rets, falls)
	}
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry nodes = %d, want 3", len(g.Entry.Nodes))
	}
}

func TestCFGIfElseReturns(t *testing.T) {
	g, _ := parseBody(t, `
if x() {
	return
}
y()`)
	rets, falls := countExits(g)
	if rets != 1 || falls != 1 {
		t.Fatalf("rets=%d falls=%d, want 1/1", rets, falls)
	}
}

func TestCFGAllPathsReturn(t *testing.T) {
	g, _ := parseBody(t, `
if x() {
	return
}
return`)
	rets, falls := countExits(g)
	if rets != 2 || falls != 0 {
		t.Fatalf("rets=%d falls=%d, want 2/0", rets, falls)
	}
}

// Short-circuit conditions split into one block per leaf condition, and
// no block's Cond is a && / || expression.
func TestCFGShortCircuitSplit(t *testing.T) {
	g, _ := parseBody(t, `
if a() && (b() || !c()) {
	x()
}
y()`)
	leaves := 0
	for _, b := range g.Blocks {
		if b.Cond == nil {
			continue
		}
		leaves++
		if be, ok := b.Cond.(*ast.BinaryExpr); ok {
			op := be.Op.String()
			if op == "&&" || op == "||" {
				t.Fatalf("unsplit short-circuit condition %s", op)
			}
		}
		if _, ok := b.Cond.(*ast.UnaryExpr); ok {
			t.Fatalf("negation not folded into edge swap")
		}
	}
	if leaves != 3 {
		t.Fatalf("leaf conditions = %d, want 3", leaves)
	}
}

func TestCFGLoopEdges(t *testing.T) {
	g, _ := parseBody(t, `
for i := 0; i < n; i++ {
	if bad() {
		break
	}
	work()
}
done()`)
	// The loop head must be reachable and have a back edge path; the
	// block after the loop must be reachable.
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if b.Cond != nil && !reach[b] {
			t.Fatalf("loop condition block unreachable")
		}
	}
	rets, falls := countExits(g)
	if rets != 0 || falls != 1 {
		t.Fatalf("rets=%d falls=%d, want 0/1", rets, falls)
	}
}

func TestCFGRangeLoop(t *testing.T) {
	g, _ := parseBody(t, `
for _, v := range xs {
	use(v)
}
after()`)
	rets, falls := countExits(g)
	if rets != 0 || falls != 1 {
		t.Fatalf("rets=%d falls=%d, want 0/1", rets, falls)
	}
}

func TestCFGInfiniteLoopNoFall(t *testing.T) {
	g, _ := parseBody(t, `
for {
	spin()
}`)
	rets, falls := countExits(g)
	if rets != 0 || falls != 0 {
		t.Fatalf("rets=%d falls=%d, want 0/0 (no exit from for{})", rets, falls)
	}
}

func TestCFGSwitchDefault(t *testing.T) {
	// With a default clause, control cannot bypass the cases.
	g, _ := parseBody(t, `
switch k {
case 1:
	a()
case 2:
	return
default:
	c()
}
after()`)
	rets, falls := countExits(g)
	if rets != 1 || falls != 1 {
		t.Fatalf("rets=%d falls=%d, want 1/1", rets, falls)
	}
}

func TestCFGDeferInFlow(t *testing.T) {
	// A defer is an ordinary node at its registration point: it neither
	// ends its block nor adds an exit.
	g, _ := parseBody(t, `
defer cleanup()
if x() {
	defer other()
	return
}
y()`)
	rets, falls := countExits(g)
	if rets != 1 || falls != 1 {
		t.Fatalf("rets=%d falls=%d, want 1/1", rets, falls)
	}
}

func TestCFGDeadCodeAfterReturn(t *testing.T) {
	g, _ := parseBody(t, `
return
dead()`)
	rets, falls := countExits(g)
	if rets != 1 || falls != 0 {
		t.Fatalf("rets=%d falls=%d, want 1/0 (dead tail must not count)", rets, falls)
	}
}

func TestCFGGotoForward(t *testing.T) {
	g, _ := parseBody(t, `
if x() {
	goto out
}
work()
out:
done()`)
	rets, falls := countExits(g)
	if rets != 0 || falls != 1 {
		t.Fatalf("rets=%d falls=%d, want 0/1", rets, falls)
	}
}

func TestCFGSelect(t *testing.T) {
	g, _ := parseBody(t, `
select {
case <-a:
	x()
case b <- 1:
	return
}
after()`)
	rets, falls := countExits(g)
	if rets != 1 || falls != 1 {
		t.Fatalf("rets=%d falls=%d, want 1/1", rets, falls)
	}
}

// ---- dataflow ----------------------------------------------------------

// flagProblem is a toy lattice over {CLEAN=1, HELD=2, EITHER=3}: a call
// to acquire() sets HELD, release() sets CLEAN, join is bitwise-or.
// Branching on the identifier `ok` refines EITHER: true edge → HELD,
// false edge → CLEAN (modelling the swapped-flag idiom).
type flagProblem struct{}

const (
	flagClean  = 1
	flagHeld   = 2
	flagEither = flagClean | flagHeld
)

func (flagProblem) Entry() any { return flagClean }

func (flagProblem) Transfer(n ast.Node, fact any) any {
	f := fact.(int)
	var call *ast.CallExpr
	switch s := n.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			call, _ = s.Rhs[0].(*ast.CallExpr)
		}
	}
	if call != nil {
		switch calleeName(call) {
		case "acquire":
			return flagHeld
		case "release":
			return flagClean
		}
	}
	return f
}

func (flagProblem) Branch(cond ast.Expr, taken bool, fact any) any {
	f := fact.(int)
	if id, ok := cond.(*ast.Ident); ok && id.Name == "ok" {
		if taken {
			return f & flagHeld
		}
		return f & flagClean
	}
	return f
}

func (flagProblem) Join(a, b any) any   { return a.(int) | b.(int) }
func (flagProblem) Equal(a, b any) bool { return a == b }

func solveFlags(t *testing.T, src string) map[string]int {
	t.Helper()
	g, _ := parseBody(t, src)
	r := Solve(g, flagProblem{})
	// Collect the fact at each exit, keyed by "ret"/"fall".
	out := map[string]int{}
	r.ExitFacts(func(b *Block, ret *ast.ReturnStmt, fact any) {
		k := "fall"
		if ret != nil {
			k = "ret"
		}
		out[k] |= fact.(int)
	})
	return out
}

func TestDataflowStraightLine(t *testing.T) {
	facts := solveFlags(t, "acquire()\nrelease()")
	if facts["fall"] != flagClean {
		t.Fatalf("fall fact = %d, want CLEAN", facts["fall"])
	}
}

func TestDataflowLeakOnEarlyReturn(t *testing.T) {
	facts := solveFlags(t, `
acquire()
if bad() {
	return
}
release()`)
	if facts["ret"] != flagHeld {
		t.Fatalf("early-return fact = %d, want HELD (leak visible)", facts["ret"])
	}
	if facts["fall"] != flagClean {
		t.Fatalf("fall fact = %d, want CLEAN", facts["fall"])
	}
}

func TestDataflowJoinAtMerge(t *testing.T) {
	facts := solveFlags(t, `
if cond() {
	acquire()
}
after()`)
	if facts["fall"] != flagEither {
		t.Fatalf("merge fact = %d, want EITHER", facts["fall"])
	}
}

// Branch refinement: after `ok := ...; if ok { ... }`, the true edge
// keeps only HELD and the false edge only CLEAN — the solver must apply
// Branch per edge, not Join both ways.
func TestDataflowBranchRefinement(t *testing.T) {
	g, _ := parseBody(t, `
if cond() {
	acquire()
}
if ok {
	release()
	return
}
tail()`)
	r := Solve(g, flagProblem{})
	got := map[string]int{}
	r.ExitFacts(func(b *Block, ret *ast.ReturnStmt, fact any) {
		k := "fall"
		if ret != nil {
			k = "ret"
		}
		got[k] |= fact.(int)
	})
	if got["ret"] != flagClean {
		t.Fatalf("true-edge exit fact = %d, want CLEAN (HELD then released)", got["ret"])
	}
	if got["fall"] != flagClean {
		t.Fatalf("false-edge exit fact = %d, want CLEAN (refined by branch)", got["fall"])
	}
}

func TestDataflowLoopFixpoint(t *testing.T) {
	facts := solveFlags(t, `
for i := 0; i < n; i++ {
	acquire()
	release()
}
after()`)
	if facts["fall"] != flagClean {
		t.Fatalf("loop exit fact = %d, want CLEAN", facts["fall"])
	}
	facts = solveFlags(t, `
for i := 0; i < n; i++ {
	acquire()
}
after()`)
	if facts["fall"] != flagEither {
		t.Fatalf("leaky loop exit fact = %d, want EITHER", facts["fall"])
	}
}

func TestDataflowWalkReplaysFacts(t *testing.T) {
	g, _ := parseBody(t, "acquire()\nmid()\nrelease()")
	r := Solve(g, flagProblem{})
	var seen []int
	r.Walk(g.Entry, func(n ast.Node, before any) {
		seen = append(seen, before.(int))
	})
	want := []int{flagClean, flagHeld, flagHeld}
	if len(seen) != len(want) {
		t.Fatalf("walked %d nodes, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("node %d before-fact = %d, want %d", i, seen[i], want[i])
		}
	}
}
