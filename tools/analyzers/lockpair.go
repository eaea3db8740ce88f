package analyzers

import (
	"go/ast"
	"go/token"
	"strings"
)

// Lockpair enforces the lock-registration discipline in internal/core:
// once a lock-acquiring CAS has been posted, the transaction's write
// set must learn about the lock before the function can give up
// control, so that every failure path (abort, crash recovery,
// validation) sees and releases it. This is exactly the bug class PR 1
// fixed by hand: a link fault injected between the lock CAS and the
// write-set registration leaked the lock until PILL stealing reclaimed
// it.
//
// The pass runs the shared CFG/dataflow engine over each function
// body. Events:
//
//   - LOCK: a fabric post that can take a lock — ep.CAS(..., ...,
//     tx.lockWord()) directly, or ep.Do/DoSeq(...) where an argument
//     names a lock op (identifier matching (?i)lock|cas, or a local
//     whose Op literal's Swap field is built from lockWord()).
//   - REG: a write-set registration — `tx.writes = append(tx.writes,
//     ...)`, a call to failLocked (the lock hand-over used by error
//     paths), or `w.locked = ...` (marking an already-registered entry
//     as holding its lock). A REG discharges the obligation.
//
// The obligation is refined along branch edges instead of by source
// order:
//
//   - a single-op post's `err != nil` edge clears — link admission
//     happens before execution, so an errored single CAS never took
//     the lock. A multi-op doorbell's error edge does NOT clear: an
//     earlier op in the doorbell may have executed the CAS before the
//     fault, which is why the error path must itself register
//     (failLocked) or prove the CAS never fired (`lockOp.Swapped`
//     false edge).
//   - the swapped-result false edge clears — the word was not taken.
//
// Any non-crash exit reachable while the obligation is outstanding is
// the leak; the diagnostic points at the lock post.
//
// A second obligation rides the same CFG (DESIGN.md §16): once a
// function acknowledges a commit (`<x>.AckedCommit = true`), its locks
// must reach a release path before any non-crash exit — the truncate |
// release stage (tailStage, handed to the stage executor), the drain
// hand-off (handoffTail), or the sanctioned post-ack failure exit
// (postAckFailure). Deleting the async tail's hand-off leaves Commit
// returning with an acked transaction's locks owned by nobody — exactly
// the leak the drain exists to prevent. The read-only ack is exempt: it
// is refined by the `len(<x>.writes) == 0` taken edge, which proves
// there are no locks to release.
var Lockpair = &Analyzer{
	Name: "lockpair",
	Doc:  "lock-acquiring CAS must register in the write set before the function gives up control",
	Run:  runLockpair,
}

// endpointVerbs are the fabric verbs on rdma.Endpoint.
var endpointVerbs = map[string]bool{
	"Read": true, "Write": true, "CAS": true, "FAA": true,
	"Flush": true, "Do": true, "DoSeq": true,
}

func runLockpair(pass *Pass) error {
	if !IsCorePkg(pass.PkgPath) {
		return nil
	}
	units := pass.funcUnits(true)
	pass.runUnitsConcurrently(units, func(u funcUnit) {
		pass.checkLockUnit(u)
	})
	return nil
}

const (
	lockNone    = iota
	lockPending // lock may be held, write set has not learned it
)

// lockFact is the lattice value: the outstanding lock obligation.
type lockFact struct {
	state    int
	pos      token.Pos // the lock post, for reporting
	flagName string    // swapped result var of a direct CAS post
	errName  string    // error var of the post
	multi    bool      // multi-op doorbell (error edge does not clear)
	swapSel  bool      // obligation already refined by a .Swapped edge
}

type lockProblem struct {
	pass     *Pass
	lockVars map[string]bool
	reported map[token.Pos]bool
}

func (lp *lockProblem) Entry() any { return lockFact{} }

func (lp *lockProblem) Equal(a, b any) bool { return a == b }

func (lp *lockProblem) Join(a, b any) any {
	fa, fb := a.(lockFact), b.(lockFact)
	if fa.state == lockPending {
		return fa
	}
	return fb
}

func (lp *lockProblem) Transfer(n ast.Node, fact any) any {
	f := fact.(lockFact)
	as, isAssign := n.(*ast.AssignStmt)
	if isAssign && lp.pass.isRegAssign(as) {
		f = lockFact{}
	}
	shallowCalls(n, func(call *ast.CallExpr) {
		switch calleeName(call) {
		case "failLocked":
			f = lockFact{}
			return
		case "unlockAddr":
			// Releasing the word discharges the obligation: the slot-moved
			// and insert-conflict back-out paths release and return without
			// ever registering. (Their release-failure branches hand the
			// lock to failLocked.)
			f = lockFact{}
			return
		}
		isLock, multi := lp.lockPost(call)
		if !isLock {
			return
		}
		f = lockFact{state: lockPending, pos: call.Pos(), multi: multi}
		if !isAssign {
			return
		}
		// A post whose results are bound directly: capture the swapped
		// flag (3-ary CAS form) and the error for branch refinement.
		direct := false
		for _, rhs := range as.Rhs {
			if rhs == ast.Expr(call) {
				direct = true
			}
		}
		if !direct {
			return
		}
		if len(as.Lhs) > 0 {
			if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
				f.errName = id.Name
			}
		}
		if !multi && len(as.Lhs) == 3 {
			if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
				f.flagName = id.Name
			}
		}
	})
	return f
}

// lockPost classifies an Endpoint verb call as a lock-acquiring post
// and reports whether it is a multi-op doorbell.
func (lp *lockProblem) lockPost(call *ast.CallExpr) (isLock, multi bool) {
	if !isNamed(lp.pass.recvType(call), "Endpoint") || !endpointVerbs[calleeName(call)] {
		return false, false
	}
	return lp.pass.isLockPost(call, lp.lockVars)
}

func (lp *lockProblem) Branch(cond ast.Expr, taken bool, fact any) any {
	f := fact.(lockFact)
	if f.state != lockPending {
		return f
	}
	switch c := cond.(type) {
	case *ast.Ident:
		// The direct CAS's swapped result: false edge means the word was
		// not taken.
		if f.flagName != "" && c.Name == f.flagName && !taken {
			return lockFact{}
		}
	case *ast.SelectorExpr:
		// `lockOp.Swapped`: the doorbell error path proving whether the
		// CAS fired. False edge clears; the true edge now knows the lock
		// IS held, so the error refinement below must stop clearing.
		if c.Sel.Name == "Swapped" {
			if !taken {
				return lockFact{}
			}
			f.swapSel = true
			return f
		}
	case *ast.BinaryExpr:
		// `err != nil` on the post's error: an errored single-op post
		// never executed (admission before execution). A multi-op
		// doorbell may have fired the CAS before the fault.
		if c.Op.String() == "!=" && taken && !f.multi && !f.swapSel && f.errName != "" && isNilIdent(c.Y) {
			if id, ok := c.X.(*ast.Ident); ok && id.Name == f.errName {
				return lockFact{}
			}
		}
	}
	return f
}

// ackFact is the ack-obligation lattice value: whether the commit has
// been acknowledged without its locks reaching a release path yet.
type ackFact struct {
	pending  bool
	pos      token.Pos // the AckedCommit assignment, for reporting
	readOnly bool      // the len(writes) == 0 edge was taken: no locks exist
}

// ackReleases are the calls that hand an acknowledged commit's locks to
// a release path: the truncate | release stage builder, the async drain
// hand-off, and the sanctioned post-ack failure exit.
var ackReleases = map[string]bool{
	"tailStage":      true,
	"handoffTail":    true,
	"postAckFailure": true,
}

type ackProblem struct{}

func (ackProblem) Entry() any { return ackFact{} }

func (ackProblem) Equal(a, b any) bool { return a == b }

func (ackProblem) Join(a, b any) any {
	fa, fb := a.(ackFact), b.(ackFact)
	if fa.pending {
		return fa
	}
	if fb.pending {
		return fb
	}
	// readOnly survives a merge only when proven on both sides.
	return ackFact{readOnly: fa.readOnly && fb.readOnly}
}

func (ackProblem) Transfer(n ast.Node, fact any) any {
	f := fact.(ackFact)
	if as, ok := n.(*ast.AssignStmt); ok {
		for i, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "AckedCommit" || i >= len(as.Rhs) {
				continue
			}
			if id, ok := as.Rhs[i].(*ast.Ident); ok && id.Name == "true" && !f.readOnly {
				f.pending = true
				f.pos = as.Pos()
			}
		}
	}
	shallowCalls(n, func(call *ast.CallExpr) {
		if ackReleases[calleeName(call)] {
			f.pending = false
		}
	})
	return f
}

func (ackProblem) Branch(cond ast.Expr, taken bool, fact any) any {
	f := fact.(ackFact)
	// `len(<x>.writes) == 0` taken edge: a read-only transaction holds
	// no locks, so its ack carries no release obligation.
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op.String() == "==" && taken {
		if call, isCall := be.X.(*ast.CallExpr); isCall && calleeName(call) == "len" &&
			len(call.Args) == 1 && lastSelector(call.Args[0]) == "writes" {
			if lit, isLit := be.Y.(*ast.BasicLit); isLit && lit.Value == "0" {
				f.readOnly = true
			}
		}
	}
	return f
}

func (p *Pass) checkLockUnit(u funcUnit) {
	lp := &lockProblem{pass: p,
		lockVars: p.lockOpVars(u.body), reported: make(map[token.Pos]bool)}
	g := BuildCFG(u.body)
	res := Solve(g, lp)
	res.ExitFacts(func(b *Block, ret *ast.ReturnStmt, fact any) {
		if returnsCrash(ret) {
			return
		}
		f := fact.(lockFact)
		if f.state != lockPending || lp.reported[f.pos] {
			return
		}
		lp.reported[f.pos] = true
		kind := "lock-acquiring CAS"
		if f.multi {
			kind = "doorbell posting a lock CAS"
		}
		p.Reportf(f.pos, "lockpair",
			"%s can reach a function exit before the write set registers the lock (append to writes, set .locked, or hand over via failLocked): a fault on that path leaks the lock (PR 1 class)", kind)
	})

	ackRes := Solve(g, ackProblem{})
	ackReported := make(map[token.Pos]bool)
	ackRes.ExitFacts(func(b *Block, ret *ast.ReturnStmt, fact any) {
		if returnsCrash(ret) {
			return
		}
		f := fact.(ackFact)
		if !f.pending || ackReported[f.pos] {
			return
		}
		ackReported[f.pos] = true
		p.Reportf(f.pos, "lockpair",
			"acknowledged commit can reach a function exit without handing its locks to a release path (tailStage, handoffTail, or postAckFailure): the acked transaction's locks would be owned by nobody until recovery (§16)")
	})
}

// isRegAssign matches the two registration assignment shapes:
// `x.writes = append(x.writes, ...)` and `w.locked = ...`.
func (p *Pass) isRegAssign(as *ast.AssignStmt) bool {
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		switch sel.Sel.Name {
		case "locked":
			return true
		case "writes":
			if i < len(as.Rhs) {
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok && calleeName(call) == "append" {
					return true
				}
			}
		}
	}
	return false
}

// lockOpVars collects names of local variables bound to Op values whose
// Swap field is built from lockWord(), so Do(lockOp, ...) posts are
// recognised even when the CAS literal was built earlier.
func (p *Pass) lockOpVars(body ast.Node) map[string]bool {
	vars := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if !exprBuildsLockOp(rhs) {
				continue
			}
			switch lhs := as.Lhs[i].(type) {
			case *ast.Ident:
				vars[lhs.Name] = true
			case *ast.StarExpr:
				if id, ok := lhs.X.(*ast.Ident); ok {
					vars[id.Name] = true
				}
			}
		}
		return true
	})
	return vars
}

// exprBuildsLockOp reports whether e is (a pointer to) an Op composite
// literal whose Swap field calls lockWord()/LockWord().
func exprBuildsLockOp(e ast.Expr) bool {
	if ue, ok := e.(*ast.UnaryExpr); ok {
		e = ue.X
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Swap" {
			return containsNode(kv.Value, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return false
				}
				name := calleeName(call)
				return name == "lockWord" || name == "LockWord"
			})
		}
	}
	return false
}

// isLockPost classifies an Endpoint verb call as a lock-acquiring post
// and reports whether it is a multi-op doorbell.
func (p *Pass) isLockPost(call *ast.CallExpr, lockVars map[string]bool) (isLock, multi bool) {
	switch calleeName(call) {
	case "CAS":
		// ep.CAS(addr, expect, swap): lock-acquiring iff swap is built
		// from lockWord().
		if len(call.Args) == 3 && containsNode(call.Args[2], func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return false
			}
			name := calleeName(c)
			return name == "lockWord" || name == "LockWord"
		}) {
			return true, false
		}
	case "Do", "DoSeq":
		for _, arg := range call.Args {
			if argNamesLockOp(arg, lockVars) {
				return true, len(call.Args) > 1 || call.Ellipsis.IsValid()
			}
		}
	}
	return false, false
}

// argNamesLockOp reports whether the Do/DoSeq argument names a lock op:
// a local tracked in lockVars, or an identifier/selector whose name
// mentions lock or CAS (lockOp, pendingCAS, ...).
func argNamesLockOp(arg ast.Expr, lockVars map[string]bool) bool {
	name := ""
	switch a := arg.(type) {
	case *ast.Ident:
		name = a.Name
	case *ast.SelectorExpr:
		name = a.Sel.Name
	default:
		return false
	}
	if lockVars[name] {
		return true
	}
	lower := strings.ToLower(name)
	return strings.Contains(lower, "lock") || strings.Contains(lower, "cas")
}
