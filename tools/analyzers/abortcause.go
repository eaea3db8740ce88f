package analyzers

import "go/ast"

// Abortcause enforces the abort-taxonomy discipline of PR 5 in
// internal/core: every ErrAborted the engine hands out flows through
// the single decision point with a typed, meaningful reason.
//
// Rules (all per-node; the flow rule that the abort ack follows the
// release is gone — abortInternal is straight-line, and
// TestAbortNeverAckedBeforeRelease pins it):
//
//   - A1: the &abortError{...} literal is constructed ONLY inside
//     abortInternal. Anywhere else, an abort error escapes the
//     taxonomy counter and the rollback/unlock sequence.
//   - A2: the abort taxonomy counter (CountAbort) is bumped ONLY inside
//     abortCause, the single decision point — a second bump site would
//     double-count or, worse, count paths that are not aborts.
//   - A3: the reason passed to abort/abortCause must be a typed
//     metrics.AbortReason value, and the literal metrics.AbortOther is
//     reserved for paths with no better classification — each use
//     carries a //pandora:abortother directive with its justification.
var Abortcause = &Analyzer{
	Name: "abortcause",
	Doc:  "ErrAborted must flow through abortInternal with a typed non-other reason",
	Run:  runAbortcause,
}

func runAbortcause(pass *Pass) error {
	// The fixture package (testdata/src/abortcause) is in scope beside
	// the real one.
	if seg := lastSeg(pass.PkgPath); seg != "core" && seg != "abortcause" {
		return nil
	}
	for _, file := range pass.Files {
		if pass.isTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			// "Inside f" is lexical: the declaration's whole subtree,
			// closures included. Package-level initialisers are inside
			// nothing.
			in := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				in = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isNamed(pass.TypesInfo.Types[n].Type, "abortError") && in != "abortInternal" {
						pass.Reportf(n.Pos(), "abortcause",
							"abortError constructed outside abortInternal: this abort skips the taxonomy counter and the rollback/unlock sequence (PR 5 rule)")
					}
				case *ast.CallExpr:
					switch calleeName(n) {
					case "CountAbort":
						if in != "abortCause" {
							pass.Reportf(n.Pos(), "abortcause",
								"CountAbort called outside abortCause: the taxonomy counter has exactly one decision point (PR 5 rule)")
						}
					case "abort", "abortCause":
						pass.checkAbortKindArg(file, n)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkAbortKindArg enforces A3 on one abort/abortCause call: the kind
// argument must be a typed metrics.AbortReason, and a literal
// metrics.AbortOther needs a //pandora:abortother directive.
func (p *Pass) checkAbortKindArg(file *ast.File, call *ast.CallExpr) {
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
	name := ""
	switch x := ast.Unparen(kind).(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	}
	if name == "AbortOther" && !p.Allowed(file, call.Pos(), DirAbortOther) {
		p.Reportf(kind.Pos(), "abortcause",
			"metrics.AbortOther used without a //pandora:abortother justification: classify the abort, or justify why no taxonomy bucket fits")
	}
}
