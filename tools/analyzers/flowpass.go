package analyzers

// Shared plumbing for the function-unit passes (abortcause, cacheinval,
// journalstate): function-unit collection (decl
// bodies plus every function literal, each analyzed as its own CFG),
// shallow subtree scanning that respects the unit boundary, constant
// resolution, and a concurrent per-unit driver (the worklist engine is
// pure; only Report needs serialising).

import (
	"go/ast"
	"go/constant"
	"runtime"
	"sync"
)

// funcUnit is one analyzable body: a declared function or a function
// literal.
type funcUnit struct {
	file *ast.File
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declared functions
	body *ast.BlockStmt
}

// name returns the declared name, or "" for a literal.
func (u funcUnit) name() string {
	if u.decl != nil {
		return u.decl.Name.Name
	}
	return ""
}

// funcUnits collects every function body in the package as a separate
// unit: declared functions and, nested at any depth, function literals
// (closures are separate control-flow universes — a deferred closure
// runs at exit, a step() callback runs elsewhere entirely).
func (p *Pass) funcUnits(skipTests bool) []funcUnit {
	var units []funcUnit
	for _, file := range p.Files {
		if skipTests && p.isTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			units = append(units, funcUnit{file: file, decl: fd, body: fd.Body})
			f := file
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					units = append(units, funcUnit{file: f, lit: fl, body: fl.Body})
				}
				return true
			})
		}
	}
	return units
}

// runUnitsConcurrently analyzes independent function units in parallel.
// Pass.Report and the directive cache are not goroutine-safe, so the
// driver wraps Report with a mutex and pre-warms the directive cache
// for every file before fanning out.
func (p *Pass) runUnitsConcurrently(units []funcUnit, analyze func(funcUnit)) {
	for _, u := range units {
		// Warm the lazily built per-file directive index while still
		// single-threaded.
		p.Allowed(u.file, u.body.Pos(), "")
	}
	var mu sync.Mutex
	orig := p.Report
	p.Report = func(d Diagnostic) {
		mu.Lock()
		defer mu.Unlock()
		orig(d)
	}
	defer func() { p.Report = orig }()

	workers := runtime.GOMAXPROCS(0)
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}
	ch := make(chan funcUnit)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range ch {
				analyze(u)
			}
		}()
	}
	for _, u := range units {
		ch <- u
	}
	close(ch)
	wg.Wait()
}

// scanShallow walks the subtree rooted at n but does NOT descend into
// function literals: a closure body belongs to its own unit, so its
// events must not leak into the enclosing function's flow.
func scanShallow(root ast.Node, fn func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != root {
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

// shallowCalls visits every call expression in the subtree without
// entering function literals.
func shallowCalls(root ast.Node, fn func(*ast.CallExpr)) {
	scanShallow(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn(call)
		}
		return false
	})
}

// constVal resolves e to its compile-time constant value and the name
// of its (named) type, if any.
func (p *Pass) constVal(e ast.Expr) (constant.Value, string, bool) {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return nil, "", false
	}
	tname := ""
	if n := namedType(tv.Type); n != nil {
		tname = n.Obj().Name()
	}
	return tv.Value, tname, true
}

// intConstOfType resolves e to an integer constant of the named type.
func (p *Pass) intConstOfType(e ast.Expr, typeName string) (int64, bool) {
	v, tn, ok := p.constVal(e)
	if !ok || tn != typeName {
		return 0, false
	}
	i, ok := constant.Int64Val(constant.ToInt(v))
	return i, ok
}

// isZeroConst reports whether e is the constant 0.
func (p *Pass) isZeroConst(e ast.Expr) bool {
	v, _, ok := p.constVal(e)
	if !ok {
		return false
	}
	i, ok := constant.Int64Val(constant.ToInt(v))
	return ok && i == 0
}

// baseIdent returns the root identifier of a selector/index/unary
// chain (`&q.lane.Tail` → q), or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// lastSelector returns the final selector name of a chain (`q.lane.Tail`
// → "Tail"), or the identifier name itself.
func lastSelector(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.UnaryExpr:
		return lastSelector(x.X)
	case *ast.ParenExpr:
		return lastSelector(x.X)
	}
	return ""
}

// isLockWordCall reports whether the subtree contains a call to one of
// the lock-word constructors (lockWord, LockWord, lockWordFor,
// LockWordFor) — the signature of a CAS that installs lock ownership.
func isLockWordCall(e ast.Expr) bool {
	return scanShallow(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch calleeName(call) {
		case "lockWord", "LockWord", "lockWordFor", "LockWordFor":
			return true
		}
		return false
	})
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// returnsCrash reports whether a return statement's expressions contain
// a call named crash — the simulated node-death exits that deliberately
// leave protocol state for recovery to repair.
func returnsCrash(ret *ast.ReturnStmt) bool {
	if ret == nil {
		return false
	}
	for _, e := range ret.Results {
		if scanShallow(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			return ok && calleeName(call) == "crash"
		}) {
			return true
		}
	}
	return false
}

// inScopeSegs reports whether the package's final path segment is one
// of the given names. Every flow pass scopes this way so its
// analysistest fixture package (testdata/src/<passname>) is covered
// alongside the real packages.
func inScopeSegs(path string, segs ...string) bool {
	s := lastSeg(path)
	for _, want := range segs {
		if s == want {
			return true
		}
	}
	return false
}
