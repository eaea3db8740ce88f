package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Lockword gives the PILL lock-word encoding a single owner. The 8-byte
// lock word (locked flag in bit 63, 16-bit coordinator id in bits
// 47..32, transaction tag in bits 31..0) is decoded independently by
// coordinators and by recovery, so the bit layout must exist in exactly
// one place: internal/kvlayout. Outside it, the pass flags
//
//   - bit operations whose constant operand is the locked flag
//     (1<<63) applied to a uint64 — hand-rolled IsLocked/LockWord;
//   - shifts by 32 or 48 in an expression that converts to or from the
//     CoordID type — hand-rolled LockOwner/LockWord.
//
// Anything flagged should call kvlayout.LockWord / IsLocked /
// LockOwner / LockTag instead.
var Lockword = &Analyzer{
	Name: "lockword",
	Doc:  "flag raw lock-word bit manipulation outside internal/kvlayout",
	Run:  runLockword,
}

func runLockword(pass *Pass) error {
	if IsKVLayoutPkg(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.AND, token.OR, token.XOR, token.AND_NOT, token.SHL, token.SHR:
				default:
					return true
				}
				if pass.hasLockedFlagConst(n) && pass.isUint64Context(n) {
					pass.Reportf(n.Pos(), "lockword",
						"raw bit operation with the lock-word locked flag (1<<63); the lock-word layout is owned by internal/kvlayout (use LockWord/IsLocked/LockOwner/LockTag)")
					return false
				}
				// Packing: uint64(owner)<<32 — a shift whose operand
				// involves a CoordID-typed expression.
				if (n.Op == token.SHL || n.Op == token.SHR) && isShiftBy(pass, n, 32, 48) && containsCoordID(pass, n.X) {
					pass.Reportf(n.Pos(), "lockword",
						"raw owner-field shift on a lock word; the CoordID encoding is owned by internal/kvlayout (use LockWord/LockOwner)")
					return false
				}
			case *ast.CallExpr:
				// Unpacking: CoordID(word >> 32) — a conversion to
				// CoordID wrapping an owner-field shift.
				if len(n.Args) != 1 {
					return true
				}
				tv, ok := pass.TypesInfo.Types[n.Fun]
				if !ok || !tv.IsType() || !isNamed(tv.Type, "CoordID") {
					return true
				}
				if containsNode(n.Args[0], func(m ast.Node) bool {
					be, ok := m.(*ast.BinaryExpr)
					return ok && (be.Op == token.SHL || be.Op == token.SHR) && isShiftBy(pass, be, 32, 48)
				}) {
					pass.Reportf(n.Pos(), "lockword",
						"raw owner-field extraction into CoordID; the lock-word layout is owned by internal/kvlayout (use LockOwner)")
					return false
				}
			}
			return true
		})
	}
	return nil
}

// hasLockedFlagConst reports whether either operand of the bit op is
// the constant 1<<63.
func (p *Pass) hasLockedFlagConst(be *ast.BinaryExpr) bool {
	return p.isLockedFlag(be.X) || p.isLockedFlag(be.Y)
}

func (p *Pass) isLockedFlag(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, ok := constant.Uint64Val(tv.Value)
	return ok && v == 1<<63
}

// isUint64Context reports whether either side of the expression has a
// uint64-based type (which is what lock words are on the wire). This
// keeps unrelated flag spaces on other widths legal.
func (p *Pass) isUint64Context(be *ast.BinaryExpr) bool {
	for _, e := range []ast.Expr{be.X, be.Y} {
		tv, ok := p.TypesInfo.Types[e]
		if !ok {
			continue
		}
		if basic, ok := types.Unalias(tv.Type).Underlying().(*types.Basic); ok && basic.Kind() == types.Uint64 {
			return true
		}
	}
	return false
}

func containsCoordID(p *Pass, root ast.Node) bool {
	return containsNode(root, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return false
		}
		tv, ok := p.TypesInfo.Types[e]
		return ok && isNamed(tv.Type, "CoordID")
	})
}

func isShiftBy(p *Pass, be *ast.BinaryExpr, amounts ...uint64) bool {
	tv, ok := p.TypesInfo.Types[be.Y]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Uint64Val(tv.Value)
	if !ok {
		return false
	}
	for _, a := range amounts {
		if v == a {
			return true
		}
	}
	return false
}
