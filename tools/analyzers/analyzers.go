// Package analyzers implements Pandora's protocol-invariant checks as
// source-level static analysis passes, run by cmd/pandora-vet (a
// go vet -vettool). The passes make whole classes of bugs unwritable
// that the test suite can only catch dynamically, when a chaos seed
// happens to hit them:
//
//   - determinism: no wall-clock or global-PRNG calls, and no
//     map-iteration-order-dependent writes, inside the virtual-time
//     packages (internal/core, internal/rdma, internal/recovery,
//     internal/chaos). Escape hatch: //pandora:wallclock (clock/PRNG)
//     and //pandora:unordered (map iteration) on or above the line.
//   - lockword: the PILL lock-word encoding (§3.1.2) has exactly one
//     owner, internal/kvlayout; raw bit ops reconstructing or picking
//     apart lock words anywhere else are flagged.
//   - batchescape: pointers derived from a pooled rdma.OpBatch must
//     not outlive the batch (no field stores, returns, or goroutine
//     captures of arena-backed values from a locally owned batch).
//   - atomicmix: a struct field accessed through sync/atomic must
//     never also be accessed with plain loads/stores.
//   - abortcause: in internal/core every abort is constructed and
//     counted at its single decision point, with a typed reason.
//
// Every pass looks at one statement at a time: there is no control-flow
// graph, no dataflow lattice and no concurrency here. The path
// properties that once needed them (a lock CAS reaching the write set, a
// lane ticket being paid, a steal reaching a cache invalidation, a
// reconfiguration journal only advancing) are held by the engine's
// structure and a named test each instead; DESIGN.md §10 lists them.
//
// The framework is deliberately a miniature of golang.org/x/tools
// go/analysis (Analyzer/Pass/Diagnostic): the container this repo
// builds in has no module proxy access, so the suite is standard
// library only. Swapping in the real framework later is a mechanical
// change — the pass bodies only use go/ast and go/types.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the import path as the build system reports it (for
	// test variants this may carry a " [pkg.test]" suffix).
	PkgPath string
	// Report delivers one diagnostic. The driver sorts by position.
	Report func(Diagnostic)

	directives map[*ast.File]map[int]map[string]bool // file → line → directive set
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// Analyzer is one invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Lockword,
		Batchescape,
		Atomicmix,
		Abortcause,
	}
}

// Reportf formats and reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// ---- escape directives ----------------------------------------------------

// Directive names recognised in //pandora:<name> comments.
const (
	DirWallclock = "wallclock" // legitimate wall-clock / global-PRNG use
	DirUnordered = "unordered" // map iteration proven order-independent
	// The justification comment next to the directive is the contract.
	DirAbortOther = "abortother" // sanctioned metrics.AbortOther use
)

// Allowed reports whether the line holding pos (or the line directly
// above it) carries a //pandora:<name> directive. Matching the previous
// line lets a directive with a justification comment sit on its own
// line above the call.
func (p *Pass) Allowed(file *ast.File, pos token.Pos, name string) bool {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int]map[string]bool)
	}
	lines, ok := p.directives[file]
	if !ok {
		lines = make(map[int]map[string]bool)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, found := strings.CutPrefix(c.Text, "//pandora:")
				if !found {
					continue
				}
				dir, _, _ := strings.Cut(rest, " ")
				dir = strings.TrimSpace(dir)
				line := p.Fset.Position(c.Pos()).Line
				if lines[line] == nil {
					lines[line] = make(map[string]bool)
				}
				lines[line][dir] = true
			}
		}
		p.directives[file] = lines
	}
	line := p.Fset.Position(pos).Line
	return lines[line][name] || lines[line-1][name]
}

// isTestFile reports whether the file is a _test.go file. Passes whose
// discipline only binds production code use this to skip test sources,
// which legitimately simulate rule-breaking peers.
func (p *Pass) isTestFile(file *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go")
}

// ---- package scoping ------------------------------------------------------

// virtualTimeSegs are the package-name segments of the packages that
// run on the simulated clock (rdma.VClock) and must stay bit-identical
// under a fixed seed. Matching on the final path segment keeps the
// rule valid for the real packages (pandora/internal/core), their test
// variants, and analysistest fixtures (testdata/src/core).
var virtualTimeSegs = map[string]bool{
	"core":     true,
	"rdma":     true,
	"recovery": true,
	"chaos":    true,
	"cache":    true,
	"metrics":  true,
	"reconfig": true,
	"hotlock":  true,
}

// BasePkgPath strips the " [pkg.test]" variant suffix go list/go vet
// attach to test packages.
func BasePkgPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path
}

// lastSeg returns the final path segment, with any _test suffix (the
// external test package) removed.
func lastSeg(path string) string {
	path = BasePkgPath(path)
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return strings.TrimSuffix(path, "_test")
}

// IsVirtualTimePkg reports whether the determinism contract applies to
// the package.
func IsVirtualTimePkg(path string) bool { return virtualTimeSegs[lastSeg(path)] }

// IsKVLayoutPkg reports whether the package is the lock-word owner.
func IsKVLayoutPkg(path string) bool { return lastSeg(path) == "kvlayout" }

// IsHotlockPkg reports whether the package is the hot-lock queue
// policy layer (the second legal home of ticket-word bit operations).
func IsHotlockPkg(path string) bool { return lastSeg(path) == "hotlock" }

// ---- shared AST/type helpers ----------------------------------------------

// namedType unwraps pointers and aliases and returns the named type, or
// nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (through pointers/aliases) is a named type
// with the given name. Matching by name rather than full package path
// keeps the passes testable on self-contained fixtures; within this
// module the names Endpoint, OpBatch and CoordID are unambiguous.
func isNamed(t types.Type, name string) bool {
	n := namedType(t)
	return n != nil && n.Obj().Name() == name
}

// recvType returns the static type of the receiver of a method call
// expression x.Sel(...), or nil.
func (p *Pass) recvType(call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := p.TypesInfo.Selections[sel]; ok {
		return s.Recv()
	}
	return nil
}

// calleeName returns the bare name of the called function or method
// ("lockWord" for tx.lockWord(...)), or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// pkgFuncCall reports whether call is pkgname.Funcname(...) resolving
// to the given package path.
func (p *Pass) pkgFuncCall(call *ast.CallExpr) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// containsNode reports whether the subtree rooted at root contains a
// node for which fn returns true.
func containsNode(root ast.Node, fn func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if fn(n) {
			found = true
			return false
		}
		return true
	})
	return found
}
