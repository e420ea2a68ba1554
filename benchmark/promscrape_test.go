package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"snoopmva"
	"snoopmva/internal/admission"
	"snoopmva/internal/obs"
	"snoopmva/internal/snoopd"
)

// The scraper reads the exposition an in-process snoopd writes: counter
// deltas, a gauge, labeled histogram _sum/_count, and counters summed
// over a label.
func TestScrapeSnoopdMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	adm, err := admission.New(admission.Config{MaxInflight: 8, Registry: reg, Name: "snoopd"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(snoopd.New(snoopd.Config{
		Registry:  reg,
		Cache:     snoopmva.NewCachedSolver(64),
		Admission: adm,
	}))
	defer srv.Close()
	client := srv.Client()

	before, err := scrape(client, srv.URL+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	hot := hotSet(1, 2)
	for _, c := range []config{hot[0], hot[0], hot[1]} { // one repeat: a cache hit
		b, err := json.Marshal(solveBody(c))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/solve: %s", resp.Status)
		}
	}
	after, err := scrape(client, srv.URL+"/metrics")
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		kv   []string
		want float64
	}{
		{"snoopmva_http_requests_total", []string{"route", "POST /v1/solve", "code", "2xx"}, 3},
		{"snoopmva_http_request_seconds_count", []string{"route", "POST /v1/solve"}, 3},
		{"snoopmva_http_requests_total", []string{"code", "4xx"}, 0},
		{"snoopmva_admission_admitted_total", []string{"limiter", "snoopd"}, 3},
		{"snoopmva_admission_shed_total", []string{"limiter", "snoopd"}, 0},
		{"snoopmva_solvecache_hits_total", []string{"cache", "snoopd"}, 1},
		{"snoopmva_solvecache_misses_total", []string{"cache", "snoopd"}, 2},
	} {
		if got := delta(before, after, c.name, c.kv...); got != c.want {
			t.Errorf("delta %s%v = %v, want %v", c.name, c.kv, got, c.want)
		}
	}
	if sum := delta(before, after, "snoopmva_http_request_seconds_sum", "route", "POST /v1/solve"); sum <= 0 {
		t.Errorf("request-seconds sum grew by %v, want > 0", sum)
	}
	if got := after.sum("snoopmva_solvecache_entries", "cache", "snoopd"); got != 2 {
		t.Errorf("gauge snoopmva_solvecache_entries = %v, want 2", got)
	}
	// A histogram's +Inf bucket equals its count.
	if b, n := after.sum("snoopmva_http_request_seconds_bucket", "route", "POST /v1/solve", "le", "+Inf"),
		after.sum("snoopmva_http_request_seconds_count", "route", "POST /v1/solve"); b != n || n < 3 {
		t.Errorf("+Inf bucket %v, count %v", b, n)
	}
}

func TestParsePromLabels(t *testing.T) {
	text := `# HELP x A metric.
# TYPE x counter
x{b="2",a="q\"uote\\d\n"} 5
y 1.5e3 1700000000000
z{} 7
`
	snap, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.sum("x", "a", "q\"uote\\d\n", "b", "2"); got != 5 {
		t.Errorf("x = %v, want 5", got)
	}
	if got := snap.sum("y"); got != 1500 {
		t.Errorf("y = %v, want 1500", got)
	}
	if got := snap.sum("z"); got != 7 {
		t.Errorf("z = %v, want 7", got)
	}
	for _, bad := range []string{`x{a="1"`, `x{a=1} 2`, `x`, `x{a="1"} nope`} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
