package snoopmva

// The orphan guard: every internal package must be linked into something
// a user runs, or be a named test-only package some other package's tests
// import. Library code that only its own tests reach is deleted, not kept.

import (
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// testOnlyPackages are the internal packages no program links, each with
// the reason it stays.
var testOnlyPackages = map[string]string{
	"snoopmva/internal/queueing":          "textbook MVA oracle for the flat model's reduction test (internal/mva)",
	"snoopmva/internal/lint/analysistest": "fixture harness for the snooplint analyzer tests (internal/lint)",
}

// goList runs `go list` with args and returns its output lines.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		msg := ""
		if ee, ok := err.(*exec.ExitError); ok {
			msg = string(ee.Stderr)
		}
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, msg)
	}
	return strings.Fields(string(out))
}

func TestNoOrphanInternalPackages(t *testing.T) {
	linked := map[string]bool{}
	for _, p := range goList(t, "-deps", ".", "./cmd/...", "./examples/...") {
		linked[p] = true
	}
	// importedByTests maps a package to the other packages whose tests
	// import it.
	importedByTests := map[string][]string{}
	for _, line := range goList(t, "-f", "{{.ImportPath}}:{{join .TestImports \",\"}},{{join .XTestImports \",\"}}", "./...") {
		owner, imports, _ := strings.Cut(line, ":")
		for _, imp := range strings.Split(imports, ",") {
			if imp != "" && imp != owner {
				importedByTests[imp] = append(importedByTests[imp], owner)
			}
		}
	}
	var orphans []string
	for _, p := range goList(t, "./internal/...") {
		if linked[p] {
			if _, ok := testOnlyPackages[p]; ok {
				t.Errorf("%s is linked into a program; drop it from testOnlyPackages", p)
			}
			continue
		}
		if _, ok := testOnlyPackages[p]; !ok {
			orphans = append(orphans, p)
			continue
		}
		if len(importedByTests[p]) == 0 {
			t.Errorf("%s is listed as test-only (%s), but no other package's tests import it", p, testOnlyPackages[p])
		}
	}
	sort.Strings(orphans)
	for _, p := range orphans {
		t.Errorf("%s is linked into no command, example or the root package; delete it or list it in testOnlyPackages", p)
	}
}
