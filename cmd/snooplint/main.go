// Command snooplint runs the repo's custom analyzer suite (ctxloop,
// floateq, hotalloc, metricreg, naninf, panicmsg, senterr, spawnbound)
// over Go packages.
//
// Modes:
//
//	snooplint [-only a,b] [packages...]   run the suite (default ./...)
//	snooplint [-only a,b] -stale [pkgs]   report //lint:allow comments that
//	                                      suppress nothing (-only scopes the
//	                                      sweep to those analyzers' directives)
//
// Every analyzer skips test files. hotalloc's allocation check reads the
// compiler's escape diagnostics from one -gcflags=-m build over the same
// patterns.
//
// Exit status: 0 clean, 1 usage/operational error, 2 diagnostics (or, with
// -stale, stale suppressions) reported.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"snoopmva/internal/lint"
	"snoopmva/internal/lint/analysis"
	"snoopmva/internal/lint/hotalloc"
	"snoopmva/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: snooplint [-only analyzers] [-stale] [packages]   (default ./...)\n\nflags:\n")
	fmt.Fprintf(w, "  -only a,b   run only the named analyzers\n")
	fmt.Fprintf(w, "  -stale      report //lint:allow comments that suppress nothing\n")
	fmt.Fprintf(w, "              (with -only, scoped to the selected analyzers' directives)\n\nanalyzers:\n")
	for _, a := range lint.Analyzers() {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, doc)
	}
}

// selectAnalyzers resolves a comma-separated -only list against the
// suite, preserving suite order.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := lint.Analyzers()
	if only == "" {
		return all, nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("unknown analyzer %q", name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return out, nil
}

func run(args []string) int {
	fs := flag.NewFlagSet("snooplint", flag.ContinueOnError)
	fs.Usage = func() { usage(os.Stderr) }
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	stale := fs.Bool("stale", false, "report //lint:allow comments that suppress nothing")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snooplint: %v\n", err)
		return 1
	}
	// Under -only, the stale sweep is scoped to the analyzers that ran: a
	// directive for an unselected analyzer looks unused only because its
	// analyzer did not run, so it is skipped rather than reported. The
	// full suite (no -only) additionally catches directives naming
	// analyzers that do not exist at all.
	staleScope := make(map[string]bool)
	if *stale && *only != "" {
		for _, a := range analyzers {
			staleScope[a.Name] = true
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snooplint: %v\n", err)
		return 1
	}
	// hotalloc consumes compiler escape diagnostics; one -gcflags=-m build
	// over the same patterns covers every loaded package. Skip the build
	// when the selection leaves hotalloc out.
	var escapes *analysis.EscapeSet
	for _, a := range analyzers {
		if a == hotalloc.Analyzer {
			escapes, err = load.Escapes(".", patterns...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "snooplint: %v\n", err)
				return 1
			}
			break
		}
	}

	total, staleTotal := 0, 0
	for _, p := range pkgs {
		out, err := analysis.RunTarget(analyzers, analysis.Target{
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Pkg,
			TypesInfo: p.TypesInfo,
			Escapes:   escapes,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "snooplint: %v\n", err)
			return 1
		}
		if *stale {
			for _, d := range out.Unused {
				if len(staleScope) > 0 && !staleScope[d.Analyzer] {
					continue
				}
				why := "finding no longer reported"
				if d.Reason == "" {
					why = "missing reason, suppresses nothing"
				}
				fmt.Printf("%s: stale //lint:allow %s (%s)\n", relativePos(d.Pos), d.Analyzer, why)
				staleTotal++
			}
			continue
		}
		for _, f := range out.Findings {
			fmt.Println(relativize(f))
		}
		total += len(out.Findings)
	}
	if *stale {
		if staleTotal > 0 {
			fmt.Fprintf(os.Stderr, "snooplint: %d stale suppression(s)\n", staleTotal)
			return 2
		}
		return 0
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "snooplint: %d diagnostic(s)\n", total)
		return 2
	}
	return 0
}

// relativize shortens absolute file paths to the current directory for
// readable, clickable output.
func relativize(f analysis.Finding) string {
	f.Pos = relativePos(f.Pos)
	return f.String()
}

func relativePos(p token.Position) token.Position {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	return p
}
