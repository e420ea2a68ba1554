package snoopmva

// Smoke tests for the runnable examples: build each one and run it to
// completion, checking for a sentinel line in its output. This keeps the
// examples from rotting as the API evolves.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example smoke tests build and run binaries")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	sentinels := map[string]string{
		"quickstart":      "speedup",
		"designspace":     "design ranking",
		"protocolcompare": "Dragon",
		"measurement":     "most influential parameters",
		"cachesizing":     "capacity needed",
	}
	bin := t.TempDir()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		want, ok := sentinels[name]
		if !ok {
			t.Errorf("example %q has no smoke-test sentinel — add one", name)
			continue
		}
		delete(sentinels, name)
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			build := exec.Command("go", "build", "-o", exe, "./examples/"+name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			out, err := exec.Command(exe).CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		})
	}
	for name := range sentinels {
		t.Errorf("sentinel names example %q, which has no directory — delete the row", name)
	}
}
