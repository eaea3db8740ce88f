package analyzers

import (
	"go/ast"
	"go/token"
)

// Abortcause enforces the abort-taxonomy discipline of PR 5 in
// internal/core: every ErrAborted the engine hands out flows through
// the single decision point with a typed, meaningful reason.
//
// Rules:
//
//   - A1: the &abortError{...} literal is constructed ONLY inside
//     abortInternal. Anywhere else, an abort error escapes the
//     taxonomy counter and the rollback/unlock sequence.
//   - A2: the abort taxonomy counter (CountAbort) is bumped ONLY inside
//     abortCause, the single decision point — a second bump site would
//     double-count or, worse, count paths that are not aborts.
//   - A3 (flow): inside abortInternal, a return that constructs
//     &abortError must be reached only after the locks were released:
//     the truncate | release stage (tailStage, DESIGN.md §16) actually
//     handed to the stage executor (run). Building the stage alone does
//     not release; the `b.Len() > 0` false edge proves the batch was
//     empty (nothing to release). The
//     abort error is the client-visible "aborted" ack, and acking
//     before the locks are actually released recreates the
//     fenced-zombie hazard (Cor3's dual).
//   - A4: the reason passed to abort/abortCause must be a typed
//     metrics.AbortReason value, and the literal metrics.AbortOther is
//     reserved for paths with no better classification — each use
//     carries a //pandora:abortother directive with its justification.
var Abortcause = &Analyzer{
	Name: "abortcause",
	Doc:  "ErrAborted must flow through abortInternal with a typed non-other reason",
	Run:  runAbortcause,
}

func runAbortcause(pass *Pass) error {
	if !inScopeSegs(pass.PkgPath, "core", "abortcause") {
		return nil
	}
	units := pass.funcUnits(true)
	pass.runUnitsConcurrently(units, func(u funcUnit) {
		pass.checkAbortUnit(u)
	})
	return nil
}

// abortFact is the A3 lattice: whether the locks were definitely
// released on the current path. Bits so joins can carry "either".
const (
	abortLocked   = 1 // no release reached
	abortStaged   = 2 // release stage built (tailStage), not run
	abortUnlocked = 4
	abortEither   = abortLocked | abortUnlocked
)

type abortProblem struct{}

func (abortProblem) Entry() any { return abortLocked }

func (abortProblem) Transfer(n ast.Node, fact any) any {
	f := fact.(int)
	shallowCalls(n, func(call *ast.CallExpr) {
		switch calleeName(call) {
		case "tailStage":
			// The releases are staged into a batch; the locks are not free
			// until the executor has posted them.
			f = abortStaged
		case "run":
			if f&abortStaged != 0 {
				f = f&^abortStaged | abortUnlocked
			}
		}
	})
	return f
}

func (abortProblem) Branch(cond ast.Expr, taken bool, fact any) any {
	f := fact.(int)
	if f&abortStaged == 0 {
		return f
	}
	// `<b>.Len() > 0` false edge on a staged batch: nothing was staged,
	// so there was nothing to release and the path counts as unlocked.
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op.String() == ">" && !taken {
		if call, isCall := be.X.(*ast.CallExpr); isCall && calleeName(call) == "Len" {
			return f&^abortStaged | abortUnlocked
		}
	}
	return f
}
func (abortProblem) Join(a, b any) any   { return a.(int) | b.(int) }
func (abortProblem) Equal(a, b any) bool { return a == b }

func (p *Pass) checkAbortUnit(u funcUnit) {
	inAbortInternal := u.name() == "abortInternal"
	inAbortCause := u.name() == "abortCause"

	// A1 / A2 / A4: per-node rules.
	scanShallow(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isNamed(p.TypesInfo.Types[n].Type, "abortError") && !inAbortInternal {
				p.Reportf(n.Pos(), "abortcause",
					"abortError constructed outside abortInternal: this abort skips the taxonomy counter and the rollback/unlock sequence (PR 5 rule)")
			}
		case *ast.CallExpr:
			switch calleeName(n) {
			case "CountAbort":
				if !inAbortCause {
					p.Reportf(n.Pos(), "abortcause",
						"CountAbort called outside abortCause: the taxonomy counter has exactly one decision point (PR 5 rule)")
				}
			case "abort", "abortCause":
				p.checkAbortKindArg(u, n)
			}
		}
		return false
	})

	// A3: inside abortInternal, every &abortError return follows the
	// unlock.
	if !inAbortInternal {
		return
	}
	g := BuildCFG(u.body)
	res := Solve(g, abortProblem{})
	reported := map[token.Pos]bool{}
	res.ExitFacts(func(b *Block, ret *ast.ReturnStmt, fact any) {
		if ret == nil {
			return
		}
		constructs := false
		for _, e := range ret.Results {
			if scanShallow(e, func(m ast.Node) bool {
				cl, ok := m.(*ast.CompositeLit)
				return ok && isNamed(p.TypesInfo.Types[cl].Type, "abortError")
			}) {
				constructs = true
			}
		}
		if !constructs {
			return
		}
		if fact.(int)&(abortLocked|abortStaged) != 0 && !reported[ret.Pos()] {
			reported[ret.Pos()] = true
			p.Reportf(ret.Pos(), "abortcause",
				"abortError returned on a path that never released the write-set locks (a tailStage handed to the stage executor): acking the abort before the locks are freed recreates the fenced-zombie hazard")
		}
	})
}

// checkAbortKindArg enforces A4 on one abort/abortCause call: the kind
// argument must be a typed metrics.AbortReason, and a literal
// metrics.AbortOther needs a //pandora:abortother directive.
func (p *Pass) checkAbortKindArg(u funcUnit, call *ast.CallExpr) {
	if len(call.Args) < 1 {
		return
	}
	kind := call.Args[0]
	tv, ok := p.TypesInfo.Types[kind]
	if !ok || !isNamed(tv.Type, "AbortReason") {
		p.Reportf(kind.Pos(), "abortcause",
			"abort reason is not a typed metrics.AbortReason value: untyped reasons break the abort taxonomy (PR 5 rule)")
		return
	}
	if lastSelector(kind) == "AbortOther" {
		if !p.Allowed(u.file, call.Pos(), DirAbortOther) {
			p.Reportf(kind.Pos(), "abortcause",
				"metrics.AbortOther used without a //pandora:abortother justification: classify the abort, or justify why no taxonomy bucket fits")
		}
	}
}
