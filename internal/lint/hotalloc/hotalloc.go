// Package hotalloc enforces the allocation budget of the solve-layer hot
// paths. A function annotated with the //snoop:hotpath directive declares
// that it allocates nothing on the heap; any escape-analysis diagnostic
// the compiler attributes to a line inside the function is a finding.
//
// The check is the static half of ROADMAP item 2 (the allocation-free
// cold solve): once the pooled-scratch optimization lands, hotalloc is
// what keeps the fixed-point iterate, the cache-key encoder and the obs
// increment helpers allocation-free through future edits. Allocations
// that are genuinely off the steady-state path — error constructions, a
// miss-path flight record — are suppressed in place with a reasoned
// //lint:allow hotalloc directive, so the budget's exceptions are visible
// in the tree.
//
// Scope and limits: the compiler charges an allocation in an inlined
// callee to the callee's own source line, so the check covers the
// annotated function's body plus whatever the annotation's author keeps
// there — it does not chase out-of-line calls. Escape data comes from the
// driver (`go build -gcflags=-m=1`, loaded by internal/lint/load); a
// target without it only gets directive placement validated.
package hotalloc

import (
	"go/ast"
	"strings"

	"snoopmva/internal/lint/analysis"
)

// Directive is the comment that marks a function as allocation-budgeted.
// It must appear in the doc comment of a function declaration.
const Directive = "//snoop:hotpath"

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: `forbid heap allocations in //snoop:hotpath functions

A function whose doc comment carries the //snoop:hotpath directive must
not allocate: every "escapes to heap" / "moved to heap" diagnostic the
compiler attributes to its body is reported. Suppress intentional
off-path allocations (error returns, miss-path records) with a reasoned
//lint:allow hotalloc directive on the allocating line.`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		annotated := make(map[*ast.CommentGroup]bool)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !isAnnotated(fd.Doc) {
				if gd, ok := decl.(*ast.GenDecl); ok && isAnnotated(gd.Doc) {
					annotated[gd.Doc] = true
					pass.Reportf(gd.Pos(), "misplaced %s directive: only function declarations carry an allocation budget", Directive)
				}
				continue
			}
			annotated[fd.Doc] = true
			for _, site := range pass.Escapes.SitesIn(pass.Fset, fd) {
				pos := analysis.SitePos(pass.Fset, fd.Pos(), site)
				pass.Reportf(pos, "heap allocation in %s function %s: %s", Directive, fd.Name.Name, site.Message)
			}
		}
		// Directives floating outside any declaration's doc comment bind
		// to nothing and would silently check nothing.
		for _, cg := range f.Comments {
			if annotated[cg] {
				continue
			}
			for _, c := range cg.List {
				if isDirective(c.Text) {
					pass.Reportf(c.Pos(), "misplaced %s directive: not the doc comment of a function declaration", Directive)
				}
			}
		}
	}
	return nil, nil
}

// isAnnotated reports whether the doc comment group carries the
// directive.
func isAnnotated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if isDirective(c.Text) {
			return true
		}
	}
	return false
}

// isDirective reports whether a comment's text is the hotpath directive,
// optionally followed by a space-separated note.
func isDirective(text string) bool {
	rest, ok := strings.CutPrefix(text, Directive)
	return ok && (rest == "" || strings.HasPrefix(rest, " "))
}
