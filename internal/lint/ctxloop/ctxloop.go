// Package ctxloop enforces the cancellation discipline of the solver hot
// loops: any for loop that can run for an unbounded or budget-controlled
// number of iterations must have a cancellation path — a ctx.Err() check,
// a select on ctx.Done(), delegation to a callee that takes the context,
// or an enclosing loop that already does one of those.
//
// The fixed-point iterations, reachability searches and cycle loops at the
// heart of the model are exactly the loops whose trip counts depend on
// convergence behavior, so a missing check turns a divergent configuration
// into an unkillable computation (PR 1 introduced the convention; this
// analyzer pins it down).
package ctxloop

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"snoopmva/internal/lint/analysis"
)

// Analyzer is the ctxloop check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Doc: `require a cancellation path in unbounded solver loops

A for loop in a solver package must satisfy one of:
  - it is a range loop, or a counted loop (init/cond/post over one
    index) whose bound is a constant, a local variable, or len/cap — a
    trip count fixed by data already in memory;
  - the loop statement mentions a context.Context value (ctx.Err(),
    ctx.Done(), or a call that threads ctx into the callee);
  - an enclosing loop in the same function already has such a mention,
    bounding cancellation latency by one outer iteration.
Convergence- and budget-style loops — "for { ... }", "for delta > tol",
"for len(queue) > 0", "for iter <= o.MaxIter" — are flagged unless they
carry a cancellation path.`,
	Run: run,
}

// solverPackages names the packages the invariant governs. The analyzer's
// own fixture package is included so the analysistest suite can exercise
// it; no real package shares that name.
var solverPackages = map[string]bool{
	"mva":        true,
	"petri":      true,
	"markov":     true,
	"cachesim":   true,
	"resilience": true,
	"ctxloop":    true,
	// The observability and serving layers run unbounded retry (CAS) and
	// accept/drain shapes of their own; the same discipline applies.
	"obs":    true,
	"snoopd": true,
	// The distributed coordinator's acquire-retry waits, health-probe
	// ticker and worker loops all spin until cancellation; a missing
	// ctx path would leave a crashed run's goroutines spinning forever.
	"dispatch": true,
	// Admission queue waits sit on the serving hot path; an uncancelable
	// wait there turns a client disconnect into a leaked slot.
	"admission": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !solverPackages[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(pass, fd.Body, false)
			}
		}
	}
	return nil, nil
}

// visit walks stmts tracking whether an enclosing loop already carries a
// cancellation path (ctxActive); such loops bound the cancellation latency
// of everything nested under them.
func visit(pass *analysis.Pass, n ast.Node, ctxActive bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch loop := node.(type) {
		case *ast.RangeStmt:
			if loop == n {
				return true
			}
			visit(pass, loop.Body, ctxActive || mentionsContext(pass, loop))
			return false
		case *ast.ForStmt:
			if loop == n {
				return true
			}
			hasCtx := mentionsContext(pass, loop)
			if !ctxActive && !hasCtx && !exempt(pass, loop) {
				pass.Reportf(loop.For, "loop trip count is neither data-bounded nor constant and the loop has no cancellation path; check ctx.Err() periodically (or pass ctx to the callee doing the work)")
			}
			visit(pass, loop.Body, ctxActive || hasCtx)
			return false
		}
		return true
	})
}

// budgetName matches identifiers that smell like iteration budgets rather
// than data dimensions. A counted loop whose bound mentions one of these
// (o.MaxIter, cfg.MeasureCycles, …) can run for a configuration-controlled
// long time and still needs a cancellation path.
var budgetName = regexp.MustCompile(`(?i)iter|cycle|budget|limit|step|epoch|deadline`)

// exempt reports whether the loop's shape proves a data- or constant-
// bounded trip count.
func exempt(pass *analysis.Pass, fs *ast.ForStmt) bool {
	if fs.Cond == nil {
		return false // for {}
	}
	counter := ""
	if id := counterIdent(fs); id != nil {
		counter = id.Name
	}
	return bounded(pass, fs.Cond, counter)
}

// bounded reports whether cond proves a bounded trip count. counter is the
// loop counter name for classic counted loops ("" otherwise).
func bounded(pass *analysis.Pass, cond ast.Expr, counter string) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false // bool flag condition: convergence-style
	}
	switch be.Op {
	case token.LAND:
		return bounded(pass, be.X, counter) || bounded(pass, be.Y, counter)
	case token.LOR:
		return bounded(pass, be.X, counter) && bounded(pass, be.Y, counter)
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
	default:
		return false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	for _, side := range [][2]ast.Expr{{x, y}, {y, x}} {
		limit, other := side[0], side[1]
		// len/cap bound a scan unless compared against constant zero
		// (the "for len(queue) > 0" drain shape, where the queue grows).
		if isLenOrCap(pass, limit) && !analysis.IsZeroConst(pass.TypesInfo, other) {
			return true
		}
		// A non-zero constant limit bounds a monotone scan; zero is the
		// countdown/drain sentinel and proves nothing by itself.
		if isConst(pass, limit) && !analysis.IsZeroConst(pass.TypesInfo, limit) {
			return true
		}
		// Counted loop vs a call-free, non-budget bound expression: a data
		// dimension fixed at loop entry (m.n, cfg.N, s.rowPtr[i+1], …).
		if counter != "" && isIdentNamed(other, counter) &&
			callFree(pass, limit) && !mentionsBudget(limit) {
			return true
		}
	}
	return false
}

func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

// callFree reports whether e contains no function calls other than
// len/cap and type conversions — i.e. evaluates from data already in hand.
func callFree(pass *analysis.Pass, e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if isLenOrCap(pass, call) {
			return true
		}
		if tv, found := pass.TypesInfo.Types[call.Fun]; found && tv.IsType() {
			return true // conversion
		}
		ok = false
		return false
	})
	return ok
}

// mentionsBudget reports whether any identifier in e looks like an
// iteration budget.
func mentionsBudget(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && budgetName.MatchString(id.Name) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// counterIdent returns the loop counter when fs is a classic counted loop
// (init defines/assigns one identifier, post increments or decrements it,
// cond mentions it), else nil.
func counterIdent(fs *ast.ForStmt) *ast.Ident {
	if fs.Init == nil || fs.Post == nil || fs.Cond == nil {
		return nil
	}
	init, ok := fs.Init.(*ast.AssignStmt)
	if !ok || len(init.Lhs) != 1 {
		return nil
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	switch post := fs.Post.(type) {
	case *ast.IncDecStmt:
		if p, ok := post.X.(*ast.Ident); !ok || p.Name != id.Name {
			return nil
		}
	case *ast.AssignStmt:
		if len(post.Lhs) != 1 {
			return nil
		}
		if p, ok := post.Lhs[0].(*ast.Ident); !ok || p.Name != id.Name {
			return nil
		}
		if post.Tok != token.ADD_ASSIGN && post.Tok != token.SUB_ASSIGN {
			return nil
		}
	default:
		return nil
	}
	return id
}

// isConst reports whether e is a compile-time constant.
func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// isLenOrCap reports whether e is a call to the builtin len or cap.
func isLenOrCap(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && (b.Name() == "len" || b.Name() == "cap")
}

// mentionsContext reports whether any expression under n has type
// context.Context.
func mentionsContext(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(node ast.Node) bool {
		if found {
			return false
		}
		if e, ok := node.(ast.Expr); ok && analysis.IsContextExpr(pass.TypesInfo, e) {
			found = true
			return false
		}
		return true
	})
	return found
}
