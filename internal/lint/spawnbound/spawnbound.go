// Package spawnbound requires every goroutine spawned outside tests to
// have a provable exit path. It rules out a failure class the repository
// has already had to fix: a watchdog goroutine left running after its
// spawner had already returned. The analyzer codifies
// that lesson — a `go` statement must visibly participate in one of the
// repository's join or cancellation disciplines, or carry a reasoned
// //lint:allow suppression explaining why it terminates anyway.
//
// A goroutine is accepted when any of the following holds:
//
//   - the spawned call mentions a context.Context (the callee threads ctx
//     and every solver loop in the tree checks it periodically);
//   - the body of a spawned function literal mentions a context.Context
//     (a select on ctx.Done(), a ctx.Err() poll, or a ctx-taking callee);
//   - the body calls Done on a sync.WaitGroup — the join handshake whose
//     other half is the spawner's Wait;
//   - the body ranges over a channel, exiting when the producer closes it
//     (the worker-pool shape);
//   - the body is a single channel send — a bounded one-shot operation
//     whose result the spawner observes (the `go func() { done <- op() }`
//     shape of snoopd's serve loops).
//
// These are lexical heuristics, not proofs: the analyzer checks that the
// discipline is present, not that it is wired correctly (a WaitGroup
// whose Wait is never called still passes). That trade keeps the check
// fast, local and false-positive-free on the shapes the repository
// actually uses.
package spawnbound

import (
	"go/ast"
	"go/types"

	"snoopmva/internal/lint/analysis"
)

// Analyzer is the spawnbound check.
var Analyzer = &analysis.Analyzer{
	Name: "spawnbound",
	Doc: `require a provable exit path for every goroutine

Every go statement must show one of: a context threaded into the spawned
call or mentioned in the spawned body, a sync.WaitGroup.Done join, a
range over a closeable channel, or a single-send body. Anything else is
a potential goroutine leak and needs a reasoned //lint:allow.`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !hasExitPath(pass, gs) {
				pass.Reportf(gs.Go, "goroutine has no provable exit path: thread a context into it, join it with a sync.WaitGroup, range over a closeable channel, or make the body a single channel send")
			}
			return true
		})
	}
	return nil, nil
}

// hasExitPath applies the accepted-shape checklist to one go statement.
func hasExitPath(pass *analysis.Pass, gs *ast.GoStmt) bool {
	// Context anywhere in the spawned call (arguments or callee chain).
	if mentionsContext(pass, gs.Call) {
		return true
	}
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		// Named function without a context argument: nothing to inspect.
		return false
	}
	if mentionsContext(pass, lit.Body) || callsWaitGroupDone(pass, lit.Body) || rangesOverChannel(pass, lit.Body) {
		return true
	}
	return isSingleSend(lit.Body)
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

// callsWaitGroupDone reports whether the body contains a call to
// (*sync.WaitGroup).Done, resolved through the type checker.
func callsWaitGroupDone(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		t := pass.TypesInfo.TypeOf(sel.X)
		if t == nil {
			return true
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup" {
			found = true
			return false
		}
		return true
	})
	return found
}

// rangesOverChannel reports whether the body contains a range statement
// over a channel-typed expression.
func rangesOverChannel(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.TypeOf(rs.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSingleSend reports whether the body is exactly one channel send.
func isSingleSend(body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	_, ok := body.List[0].(*ast.SendStmt)
	return ok
}
