// Package analysis is a minimal, stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports Diagnostics.
//
// The repo builds in hermetic environments with no module proxy, so it
// cannot depend on x/tools; this package mirrors the upstream API shape
// closely enough that the snooplint analyzers could be ported to the real
// framework by changing only import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:allow <name> <reason>" suppression comments.
	Name string
	// Doc is the one-paragraph description printed by snooplint -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Escapes holds the compiler's escape-analysis diagnostics for the
	// package, when the driver supplied them (snooplint does; without
	// them it is nil and escape-dependent analyzers skip their allocation
	// checks).
	Escapes *EscapeSet
	// Report delivers one diagnostic. It is never nil.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// IsTestFile reports whether pos lies in a _test.go file. Several
// analyzers exempt tests, where exact float comparison, NaN construction
// and ad-hoc panics are legitimate.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// AllowDirective is the comment prefix that suppresses one diagnostic:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line or the line immediately above it. The reason
// is mandatory — a bare allow is ignored — so every suppression carries
// its justification into the tree.
const AllowDirective = "//lint:allow"

// Directive is one //lint:allow comment, resolved to a position. Reason
// is empty for a malformed (reasonless) directive, which suppresses
// nothing; Used reports whether the directive filtered at least one
// diagnostic during the run that parsed it.
type Directive struct {
	Pos      token.Position
	Analyzer string
	Reason   string
	Used     bool
}

// Suppressions indexes the lint:allow directives of a package.
type Suppressions struct {
	// byLine maps file -> line -> indices into directives.
	byLine     map[string]map[int][]int
	directives []*Directive
}

// ParseSuppressions collects the lint:allow directives of files.
// Directives without a reason are recorded (so the stale reporter can
// name them) but never indexed for matching: a bare allow suppresses
// nothing.
func ParseSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byLine: make(map[string]map[int][]int)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, AllowDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				d := &Directive{Pos: pos, Analyzer: fields[0]}
				if len(fields) >= 2 { // analyzer name plus a non-empty reason
					d.Reason = strings.Join(fields[1:], " ")
				}
				s.directives = append(s.directives, d)
				if d.Reason == "" {
					continue
				}
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]int)
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], len(s.directives)-1)
			}
		}
	}
	return s
}

// Allows reports whether a diagnostic from the named analyzer at pos is
// suppressed by a directive on the same line or the line above, marking
// the matching directive used.
func (s *Suppressions) Allows(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	lines, ok := s.byLine[p.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, i := range lines[line] {
			if s.directives[i].Analyzer == name {
				s.directives[i].Used = true
				return true
			}
		}
	}
	return false
}

// Unused returns the directives that suppressed nothing: stale allows
// (the finding they silenced is gone, or the named analyzer does not
// exist) and malformed reasonless allows. Meaningful only after a run of
// the full analyzer suite — under a partial suite, directives for the
// analyzers that did not run look unused.
func (s *Suppressions) Unused() []Directive {
	var out []Directive
	for _, d := range s.directives {
		if !d.Used {
			out = append(out, *d)
		}
	}
	return out
}

// Target is one type-checked package plus the optional auxiliary data
// some analyzers consume.
type Target struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Escapes carries compiler escape diagnostics (nil when the driver
	// cannot supply them; escape-dependent checks then no-op).
	Escapes *EscapeSet
}

// Outcome is the result of running a suite over one Target.
type Outcome struct {
	// Findings are the diagnostics that survived suppression, sorted.
	Findings []Finding
	// Unused are the //lint:allow directives that suppressed nothing
	// (see Suppressions.Unused for the partial-suite caveat).
	Unused []Directive
}

// RunTarget applies analyzers to one Target and reports both the
// surviving diagnostics and the suppression directives that went unused.
func RunTarget(analyzers []*Analyzer, t Target) (Outcome, error) {
	sup := ParseSuppressions(t.Fset, t.Files)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      t.Fset,
			Files:     t.Files,
			Pkg:       t.Pkg,
			TypesInfo: t.TypesInfo,
			Escapes:   t.Escapes,
		}
		pass.Report = func(d Diagnostic) {
			if sup.Allows(t.Fset, a.Name, d.Pos) {
				return
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: t.Fset.Position(d.Pos), Message: d.Message})
		}
		if _, err := a.Run(pass); err != nil {
			return Outcome{}, fmt.Errorf("analyzer %s on %s: %w", a.Name, t.Pkg.Path(), err)
		}
	}
	SortFindings(out)
	return Outcome{Findings: out, Unused: sup.Unused()}, nil
}

// Finding is a resolved diagnostic (position translated, analyzer named).
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// SortFindings orders findings by file, line, column, analyzer.
func SortFindings(fs []Finding) {
	for i := 1; i < len(fs); i++ { // insertion sort: finding lists are short
		for j := i; j > 0 && lessFinding(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func lessFinding(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}
