package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// A tiny run of every workload passes its checks and prints a result
// line with exactly the declared metrics, traced and untraced; with a
// planted wrong expected value the same run fails the command.
func TestSmallRunOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts snoopd processes")
	}
	work := t.TempDir()
	bin, err := buildSnoopd(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			name         string
			trace, plant bool
		}{{"untraced", false, false}, {"traced", true, false}, {"planted", false, true}} {
			t.Run(w.Name+"/"+mode.name, func(t *testing.T) {
				cfg := runConfig{Workload: w.Name, Seed: 3, Seconds: 0.4, Trace: mode.trace,
					Work: work, Snoopd: bin, Small: true, Plant: mode.plant}
				var out bytes.Buffer
				code := runOne(context.Background(), cfg, &out, io.Discard)
				if mode.plant {
					if code == 0 {
						t.Fatalf("planted wrong expected value, but the command passed:\n%s", out.String())
					}
					return
				}
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				want := reported(mode.trace)
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
				if !mode.trace {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}

// BENCHMARK.json declares the workloads and metrics this command reports.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	last := -1
	for _, w := range spec.Workloads {
		i := lookup(w.Name)
		if i <= last {
			t.Errorf("workload %s: unknown to the command or out of its order", w.Name)
		}
		last = i
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %s %s, command has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
