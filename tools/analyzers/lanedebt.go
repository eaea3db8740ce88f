package analyzers

import (
	"go/ast"
	"go/token"
)

// Lanedebt enforces the hot-lock ticket-lane debt discipline of
// DESIGN.md §14 (PR 9): every FAA on a lane tail takes a ticket and
// owes the lane exactly one head advance. The debt must, on every path
// out of the function, be either
//
//   - settled (a head-advance FAA, directly or via a settler helper
//     like payLaneDebt),
//   - covered by a gated defer (the stageLockedWrite idiom: a deferred
//     closure that pays unless the acquisition transferred the debt),
//   - published to the caller (`.joined = true` on a pointer parameter,
//     the queueJoin handoff),
//   - transferred to the write entry (`.transferred = true`), in which
//     case SOME function in the package must advance a `.queueHead`
//     (appendReleaseOps' release FAA), or
//   - abandoned deliberately on a crash exit (`return tx.crash()`),
//     the one case recovery is specified to repair.
//
// Zeroing the queue state (`q = queueState{}`) while the debt is
// outstanding is a leak even under a gated defer — the defer reads
// q.joined and will pay nothing. This is exactly the PR 9 leak shape:
// deleting the settle before the zeroing wedges the lane.
//
// Same-package helpers get one-level call summaries: a *joiner*
// publishes `.joined = true` into a parameter after either FAAing a
// `.Tail` itself or absorbing a speculative ticket FAA that rode
// another doorbell (the queueAbsorb shape of DESIGN.md §16, recognised
// by reading the op's `.Old` result); a *settler* FAAs a `.Head`.
// Guarded head CASes (queueWait's and recovery's
// `CAS(head, head+1)` repairs) are repairs of OTHER participants' debt
// and deliberately do not settle the analyzed function's own ticket.
//
// Escape hatch: //pandora:lanedebt on or above the reported line.
var Lanedebt = &Analyzer{
	Name: "lanedebt",
	Doc:  "ticket-lane FAA debt must be settled, transferred, or defer-covered on every exit path",
	Run:  runLanedebt,
}

const (
	laneNone      = iota // no outstanding debt
	laneDebt             // ticket taken, nothing covers it
	laneDebtDefer        // ticket taken, gated defer settles at exit
	laneXfer             // debt transferred to the write entry
)

// laneFact is the per-variable lattice value.
type laneFact struct {
	state   int
	errName string // error var guarding the join; its != nil edge clears
}

// laneFacts maps queue-state variable names to lattice values. Treated
// as immutable; transfers copy on write.
type laneFacts map[string]laneFact

func (f laneFacts) with(name string, v laneFact) laneFacts {
	out := make(laneFacts, len(f)+1)
	for k, val := range f {
		out[k] = val
	}
	out[name] = v
	return out
}

func runLanedebt(pass *Pass) error {
	if !inScopeSegs(pass.PkgPath, "core", "recovery", "lanedebt") {
		return nil
	}
	sum := pass.laneSummaries()
	units := pass.funcUnits(true)
	pass.runUnitsConcurrently(units, func(u funcUnit) {
		pass.checkLaneUnit(u, sum)
	})
	return nil
}

// laneSummary is the one-level call-summary table for the package.
type laneSummary struct {
	joiners map[string]int // function name → flat index of the published-into param
	settler map[string]bool
	// headFAA records whether any function in the package advances a
	// `.queueHead` — the package-level release of transferred debt.
	headFAA bool
}

// laneSummaries classifies the package's declared functions.
func (p *Pass) laneSummaries() *laneSummary {
	sum := &laneSummary{joiners: make(map[string]int), settler: make(map[string]bool)}
	for _, file := range p.Files {
		if p.isTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tailFAA, headFAA, queueHeadFAA, readsOld := false, false, false, false
			published := ""
			scanShallow(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					name := calleeName(n)
					if (name == "FAA" || name == "AddFAA") && len(n.Args) >= 1 {
						switch lastSelector(n.Args[0]) {
						case "Tail":
							tailFAA = true
						case "Head":
							headFAA = true
						case "queueHead":
							queueHeadFAA = true
						}
					}
				case *ast.SelectorExpr:
					// Reading an op's .Old is the absorb signature: the FAA
					// itself rode an earlier doorbell (queueSpec armed it),
					// and this helper converts its result into queue state.
					if n.Sel.Name == "Old" {
						readsOld = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "joined" {
							if id := baseIdent(sel.X); id != nil {
								published = id.Name
							}
						}
					}
				}
				return false
			})
			if queueHeadFAA {
				sum.headFAA = true
			}
			if headFAA && !tailFAA {
				sum.settler[fd.Name.Name] = true
			}
			if (tailFAA || readsOld) && published != "" {
				flat := 0
				for _, field := range fd.Type.Params.List {
					if len(field.Names) == 0 {
						flat++
						continue
					}
					for _, pn := range field.Names {
						if pn.Name == published {
							sum.joiners[fd.Name.Name] = flat
						}
						flat++
					}
				}
			}
		}
	}
	return sum
}

// laneProblem is the FlowProblem for one function unit.
type laneProblem struct {
	pass *Pass
	sum  *laneSummary
	unit funcUnit
	// covered names queue-state variables a gated defer settles. Defers
	// run at every subsequent exit, and the real idiom registers the
	// defer before the join, so collecting them once per unit (rather
	// than flow-positionally) is exact enough and far simpler.
	covered map[string]bool
	// reported dedups diagnostics fired from Transfer, which the
	// worklist re-runs many times per block.
	reported map[token.Pos]bool
}

func (lp *laneProblem) reportOnce(pos token.Pos, format string, args ...any) {
	if lp.reported[pos] || lp.pass.Allowed(lp.unit.file, pos, DirLanedebt) {
		return
	}
	lp.reported[pos] = true
	lp.pass.Reportf(pos, "lanedebt", format, args...)
}

func (lp *laneProblem) Entry() any { return laneFacts{} }

func (lp *laneProblem) Equal(a, b any) bool {
	fa, fb := a.(laneFacts), b.(laneFacts)
	if len(fa) != len(fb) {
		return false
	}
	for k, v := range fa {
		if fb[k] != v {
			return false
		}
	}
	return true
}

func laneRank(s int) int {
	switch s {
	case laneDebt:
		return 3
	case laneDebtDefer:
		return 2
	case laneXfer:
		return 1
	}
	return 0
}

func (lp *laneProblem) Join(a, b any) any {
	fa, fb := a.(laneFacts), b.(laneFacts)
	out := make(laneFacts, len(fa)+len(fb))
	for k, v := range fa {
		out[k] = v
	}
	for k, v := range fb {
		if prev, ok := out[k]; !ok || laneRank(v.state) > laneRank(prev.state) {
			out[k] = v
		}
	}
	return out
}

func (lp *laneProblem) Transfer(n ast.Node, fact any) any {
	f := fact.(laneFacts)
	switch n := n.(type) {
	case *ast.AssignStmt:
		f = lp.transferAssign(n, f)
	case *ast.DeferStmt:
		// Defer bodies are separate units; a direct settler defer
		// (defer tx.payLaneDebt(q.lane)) covers q from here on. Gated
		// closures were collected up front in checkLaneUnit.
		if name, ok := lp.settlerCall(n.Call); ok {
			lp.covered[name] = true
			if v, ok := f[name]; ok && v.state == laneDebt {
				f = f.with(name, laneFact{state: laneDebtDefer})
			}
		}
	default:
		f = lp.applyCalls(n, f)
	}
	return f
}

// transferAssign handles joins (FAA .Tail / joiner call), publishes
// (.joined = true), transfers (.transferred = true), zeroing, and any
// settler call on the RHS.
func (lp *laneProblem) transferAssign(as *ast.AssignStmt, f laneFacts) laneFacts {
	// `<q>.joined = true` — primitive joiner publishing its ticket to
	// the caller's queue state: the debt leaves this frame.
	// `<q>.transferred = true` — debt rides the write entry; legal only
	// if the package releases queue heads somewhere.
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || i >= len(as.Rhs) {
			continue
		}
		rhsTrue := false
		if id, ok := as.Rhs[i].(*ast.Ident); ok && id.Name == "true" {
			rhsTrue = true
		}
		id := baseIdent(sel.X)
		if id == nil || !rhsTrue {
			continue
		}
		switch sel.Sel.Name {
		case "joined":
			if v, ok := f[id.Name]; ok && (v.state == laneDebt || v.state == laneDebtDefer) {
				f = f.with(id.Name, laneFact{state: laneNone})
			}
		case "transferred":
			if v, ok := f[id.Name]; ok && (v.state == laneDebt || v.state == laneDebtDefer) {
				if !lp.sum.headFAA {
					lp.reportOnce(as.Pos(),
						"lane debt transferred to the write entry, but no function in this package advances a .queueHead: the transferred ticket is never settled (PR 9 leak class)")
				}
				f = f.with(id.Name, laneFact{state: laneXfer})
			}
		}
	}

	// Zeroing: `q = queueState{}` while the ticket is outstanding. The
	// gated defer reads q.joined, so zeroing erases the debt record —
	// a leak even when a defer covers the normal exits.
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || i >= len(as.Rhs) {
			continue
		}
		cl, ok := as.Rhs[i].(*ast.CompositeLit)
		if !ok || len(cl.Elts) != 0 {
			continue
		}
		if v, ok := f[id.Name]; ok {
			if v.state == laneDebt || v.state == laneDebtDefer {
				lp.reportOnce(as.Pos(),
					"queue state %s is zeroed while its ticket-lane debt is outstanding; the gated defer reads %s.joined and will pay nothing — settle the lane first (PR 9 leak class)",
					id.Name, id.Name)
			}
			f = f.with(id.Name, laneFact{state: laneNone})
		}
	}

	// Joins and settles carried by the RHS expressions.
	errName := ""
	if len(as.Lhs) > 0 {
		if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
			errName = id.Name
		}
	}
	for _, rhs := range as.Rhs {
		rhs := rhs
		shallowCalls(rhs, func(call *ast.CallExpr) {
			if name, ok := lp.settlerCall(call); ok {
				if _, tracked := f[name]; tracked {
					f = f.with(name, laneFact{state: laneNone})
				}
			}
			if name, ok := lp.joinEvent(call); ok {
				st := laneDebt
				if lp.covered[name] {
					st = laneDebtDefer
				}
				f = f.with(name, laneFact{state: st, errName: errName})
			}
		})
	}
	return f
}

// applyCalls handles settler and joiner calls appearing in any other
// statement (expression statements, return expressions).
func (lp *laneProblem) applyCalls(n ast.Node, f laneFacts) laneFacts {
	shallowCalls(n, func(call *ast.CallExpr) {
		if name, ok := lp.settlerCall(call); ok {
			if _, tracked := f[name]; tracked {
				f = f.with(name, laneFact{state: laneNone})
			}
		}
		if name, ok := lp.joinEvent(call); ok {
			st := laneDebt
			if lp.covered[name] {
				st = laneDebtDefer
			}
			f = f.with(name, laneFact{state: st})
		}
	})
	return f
}

// joinEvent reports whether call takes a ticket, returning the tracked
// queue-state variable name: a raw FAA/AddFAA on a `.Tail` (tracking
// the address's base variable — AddFAA is the batch-armed speculative
// ticket of the fused lock doorbell) or a call to a summarized joiner
// helper (tracking the &q argument's base).
func (lp *laneProblem) joinEvent(call *ast.CallExpr) (string, bool) {
	name := calleeName(call)
	if (name == "FAA" || name == "AddFAA") && len(call.Args) >= 1 && lastSelector(call.Args[0]) == "Tail" {
		if id := baseIdent(call.Args[0]); id != nil {
			return id.Name, true
		}
		return "", false
	}
	if idx, ok := lp.sum.joiners[name]; ok && idx < len(call.Args) {
		if id := baseIdent(call.Args[idx]); id != nil {
			return id.Name, true
		}
	}
	return "", false
}

// settlerCall reports whether call settles a lane, returning the
// queue-state variable it settles: a raw FAA/AddFAA on a `.Head`, or a
// call to a summarized settler with a lane argument (payLaneDebt(q.lane)
// → q).
func (lp *laneProblem) settlerCall(call *ast.CallExpr) (string, bool) {
	name := calleeName(call)
	if name == "FAA" || name == "AddFAA" {
		if len(call.Args) >= 1 && lastSelector(call.Args[0]) == "Head" {
			if id := baseIdent(call.Args[0]); id != nil {
				return id.Name, true
			}
		}
		return "", false
	}
	if lp.sum.settler[name] && len(call.Args) >= 1 {
		if id := baseIdent(call.Args[0]); id != nil {
			return id.Name, true
		}
	}
	return "", false
}

func (lp *laneProblem) Branch(cond ast.Expr, taken bool, fact any) any {
	f := fact.(laneFacts)
	// `<err> != nil` true edge: the join verb failed, no ticket taken.
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op.String() == "!=" && taken {
		if id, ok := be.X.(*ast.Ident); ok && isNilIdent(be.Y) {
			for name, v := range f {
				if v.errName != "" && v.errName == id.Name && (v.state == laneDebt || v.state == laneDebtDefer) {
					f = f.with(name, laneFact{state: laneNone})
				}
			}
		}
	}
	// `<q>.joined` false edge: no ticket outstanding for q.
	if sel, ok := cond.(*ast.SelectorExpr); ok && sel.Sel.Name == "joined" && !taken {
		if id := baseIdent(sel.X); id != nil {
			if v, ok := f[id.Name]; ok && (v.state == laneDebt || v.state == laneDebtDefer) {
				f = f.with(id.Name, laneFact{state: laneNone})
			}
		}
	}
	return f
}

func (p *Pass) checkLaneUnit(u funcUnit, sum *laneSummary) {
	lp := &laneProblem{pass: p, sum: sum, unit: u,
		covered: make(map[string]bool), reported: make(map[token.Pos]bool)}

	// Collect gated-defer coverage up front: a defer whose closure calls
	// a settler on `<q>.lane` covers q's exits from registration on (and
	// the sanctioned idiom registers it before the join).
	scanShallow(u.body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return false
		}
		fl, ok := ds.Call.Fun.(*ast.FuncLit)
		if !ok {
			return false
		}
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if name, ok := lp.settlerCall(call); ok {
					lp.covered[name] = true
				}
			}
			return true
		})
		return false
	})

	g := BuildCFG(u.body)
	res := Solve(g, lp)
	res.ExitFacts(func(b *Block, ret *ast.ReturnStmt, fact any) {
		if returnsCrash(ret) {
			return
		}
		f := fact.(laneFacts)
		for name, v := range f {
			if v.state != laneDebt {
				continue
			}
			pos := u.body.Rbrace
			if ret != nil {
				pos = ret.Pos()
			}
			lp.reportOnce(pos,
				"ticket-lane debt of %s is unsettled on this exit path: every tail FAA owes one head advance — settle it, transfer it to the write entry, or cover it with a gated defer (PR 9 leak class)", name)
		}
	})
}
