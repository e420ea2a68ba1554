package cachesim

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

var updateSeeded = flag.Bool("update", false, "rewrite testdata/seeded_results.txt")

const seededPath = "testdata/seeded_results.txt"

// seededCase is one pinned run: the named protocols × Sharing {1, 5, 20} ×
// N ∈ {1, 4, 6, 9} × seeds {1, 2}, plus split-transaction runs that reach
// the response queue.
type seededCase struct {
	name string
	cfg  Config
}

func seededCases() []seededCase {
	var cs []seededCase
	add := func(name string, cfg Config) {
		cfg.WarmupCycles = 5000
		cfg.MeasureCycles = 50000
		cs = append(cs, seededCase{name, cfg})
	}
	levels := []struct {
		name string
		s    workload.Sharing
	}{{"s1", workload.Sharing1}, {"s5", workload.Sharing5}, {"s20", workload.Sharing20}}
	for _, p := range protocol.Named() {
		for _, lv := range levels {
			for _, n := range []int{1, 4, 6, 9} {
				for _, seed := range []uint64{1, 2} {
					add(fmt.Sprintf("%s/%s/n%d/seed%d", p.Name, lv.name, n, seed),
						Config{N: n, Protocol: p, Workload: workload.AppendixA(lv.s), Seed: seed})
				}
			}
		}
	}
	for _, n := range []int{4, 6} {
		add(fmt.Sprintf("Write-Once/s5/n%d/seed1/split", n), Config{N: n, Protocol: protocol.WriteOnce,
			Workload: workload.AppendixA(workload.Sharing5), Seed: 1, SplitTransactions: true})
	}
	return cs
}

// flatten renders every field of v as name=value, floats as hex so the
// comparison is bitwise.
func flatten(prefix string, v reflect.Value, out []string) []string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = flatten(prefix+"."+v.Type().Field(i).Name, v.Field(i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = flatten(fmt.Sprintf("%s[%d]", prefix, i), v.Index(i), out)
		}
	case reflect.Float64:
		out = append(out, prefix[1:]+"="+strconv.FormatFloat(v.Float(), 'x', -1, 64))
	case reflect.Int, reflect.Int64:
		out = append(out, prefix[1:]+"="+strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out = append(out, prefix[1:]+"="+strconv.FormatUint(v.Uint(), 10))
	case reflect.Bool:
		out = append(out, prefix[1:]+"="+strconv.FormatBool(v.Bool()))
	case reflect.String:
		out = append(out, prefix[1:]+"="+strconv.Quote(v.String()))
	default:
		panic("seeded golden: unhandled field kind " + v.Kind().String() + " at " + prefix)
	}
	return out
}

// TestSeededResultsAreBitwiseStable pins every field of every Result over
// the seeded grid, floats bitwise: a change to the simulator's data layout
// or its random draws must leave the file as it is. Regenerate only for an
// intended change of behaviour, with
//
//	go test ./internal/cachesim -run TestSeededResultsAreBitwiseStable -update
func TestSeededResultsAreBitwiseStable(t *testing.T) {
	cases := seededCases()
	got := make([]string, len(cases))
	for i, c := range cases {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[i] = c.name + " " + flat(res)
	}
	if *updateSeeded {
		body := "# Seeded cachesim Results, every field; floats in hex. Regenerate:\n" +
			"#   go test ./internal/cachesim -run TestSeededResultsAreBitwiseStable -update\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(seededPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(seededPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, the grid has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		for k := range g {
			if k >= len(w) || g[k] != w[k] {
				wk := "<missing>"
				if k < len(w) {
					wk = w[k]
				}
				t.Errorf("%s: got %s, want %s", cases[i].name, g[k], wk)
				break
			}
		}
	}
}
