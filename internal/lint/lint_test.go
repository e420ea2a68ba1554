package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"snoopmva/internal/lint"
	"snoopmva/internal/lint/analysis"
	"snoopmva/internal/lint/analysistest"
	"snoopmva/internal/lint/ctxloop"
	"snoopmva/internal/lint/floateq"
	"snoopmva/internal/lint/hotalloc"
	"snoopmva/internal/lint/load"
	"snoopmva/internal/lint/metricreg"
	"snoopmva/internal/lint/naninf"
	"snoopmva/internal/lint/panicmsg"
	"snoopmva/internal/lint/senterr"
	"snoopmva/internal/lint/spawnbound"
)

func TestCtxloop(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), ctxloop.Analyzer, "ctxloop")
}

func TestFloateq(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), floateq.Analyzer, "floateq")
}

func TestSenterr(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), senterr.Analyzer, "senterr")
}

func TestNaninf(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), naninf.Analyzer, "naninf")
}

func TestPanicmsg(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), panicmsg.Analyzer, "panicmsg")
}

func TestHotalloc(t *testing.T) {
	analysistest.RunWithEscapes(t, analysistest.TestData(t), hotalloc.Analyzer, "hotalloc")
}

func TestSpawnbound(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), spawnbound.Analyzer, "spawnbound")
}

func TestMetricreg(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), metricreg.Analyzer, "metricreg")
}

func TestSuiteIsWellFormed(t *testing.T) {
	as := lint.Analyzers()
	if len(as) != 8 {
		t.Fatalf("suite has %d analyzers, want 8", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if strings.ContainsAny(a.Name, " \t\n") {
			t.Errorf("analyzer name %q contains whitespace; //lint:allow parsing requires bare names", a.Name)
		}
	}
}

// TestHotallocWithoutEscapes pins the degradation without escape data:
// with none on the target, hotalloc still validates directive placement
// but reports no allocation findings.
func TestHotallocWithoutEscapes(t *testing.T) {
	src := `package p

//snoop:hotpath
func annotated(n int) []int { return make([]int, n) }

//snoop:hotpath
var misplaced int
`
	out := runOnSource(t, src, []*analysis.Analyzer{hotalloc.Analyzer})
	if len(out.Findings) != 1 {
		t.Fatalf("findings = %v, want exactly the misplaced-directive one", out.Findings)
	}
	if !strings.Contains(out.Findings[0].Message, "misplaced //snoop:hotpath") {
		t.Fatalf("finding = %v, want misplaced-directive", out.Findings[0])
	}
}

// TestStaleSuppressions pins the -stale contract: an allow whose finding
// is gone and an allow without a reason both surface as unused after a
// full-suite run, while a load-bearing allow does not.
func TestStaleSuppressions(t *testing.T) {
	src := `package p

import "math"

func compare(a, b float64) bool {
	//lint:allow floateq tolerance handled by caller
	return a == b
}

func stale(x float64) float64 {
	//lint:allow naninf nothing here reports anymore
	return x + 1
}

func reasonless(x float64) bool {
	//lint:allow floateq
	return math.Abs(x) == 0.5
}
`
	out := runOnSource(t, src, lint.Analyzers())
	// The reasonless allow suppresses nothing, so its line still reports.
	if len(out.Findings) != 1 || out.Findings[0].Analyzer != "floateq" {
		t.Fatalf("findings = %v, want one floateq finding on the reasonless line", out.Findings)
	}
	byAnalyzer := map[string]analysis.Directive{}
	for _, d := range out.Unused {
		byAnalyzer[d.Analyzer+"/"+d.Reason] = d
	}
	if len(out.Unused) != 2 {
		t.Fatalf("unused = %v, want the stale naninf allow and the reasonless floateq allow", out.Unused)
	}
	if _, ok := byAnalyzer["naninf/nothing here reports anymore"]; !ok {
		t.Errorf("unused = %v, missing the stale naninf allow", out.Unused)
	}
	if _, ok := byAnalyzer["floateq/"]; !ok {
		t.Errorf("unused = %v, missing the reasonless floateq allow", out.Unused)
	}
}

// TestRepoHotPackagesStayClean is the regression lock for the satellite
// fixes: the concurrency/allocation analyzers must stay silent over the
// packages they were calibrated against. (hotalloc needs escape data from
// a real build, so standalone snooplint and CI cover it; here the
// non-escape analyzers guard the layer the fixes touched.)
func TestRepoHotPackagesStayClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages via the go tool")
	}
	pkgs, err := load.Packages("../..", "./internal/solvecache", "./internal/obs", "./internal/snoopd", "./internal/mva")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	suite := []*analysis.Analyzer{spawnbound.Analyzer, metricreg.Analyzer}
	for _, p := range pkgs {
		out, err := analysis.RunTarget(suite, analysis.Target{
			Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, TypesInfo: p.TypesInfo,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.ImportPath, err)
		}
		for _, f := range out.Findings {
			t.Errorf("%s: unexpected finding: %s", p.ImportPath, f)
		}
	}
}

// runOnSource runs analyzers over one in-memory file with no imports
// beyond the std ones resolvable through export data.
func runOnSource(t *testing.T, src string, analyzers []*analysis.Analyzer) analysis.Outcome {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, info, err := load.TypeCheck(fset, "p", []*ast.File{f}, load.StdExportLookup())
	if err != nil {
		t.Fatal(err)
	}
	out, err := analysis.RunTarget(analyzers, analysis.Target{
		Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
