package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a Prometheus text exposition: every sample
// line — counters, gauges, and the _bucket/_sum/_count lines of histograms
// — keyed by its metric name plus canonically ordered labels, so lookups do
// not depend on the order the server wrote the labels in.
type promSnapshot map[string]promSample

type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm reads a text-format exposition. Comment lines (# HELP, # TYPE)
// are skipped; an optional trailing timestamp is ignored.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		name, labels, rest, err := splitSample(text)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("prometheus line %d: want value [timestamp], got %q", line, rest)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %d: %w", line, err)
		}
		snap[promKey(name, labels)] = promSample{Name: name, Labels: labels, Value: v}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// splitSample splits `name{a="x",b="y"} rest` into its parts. Label
// values may contain escaped quotes, backslashes and newlines.
func splitSample(s string) (name string, labels map[string]string, rest string, err error) {
	i := strings.IndexAny(s, "{ \t")
	if i < 0 {
		return "", nil, "", fmt.Errorf("no value in %q", s)
	}
	name, s = s[:i], s[i:]
	labels = map[string]string{}
	if s[0] != '{' {
		return name, labels, s, nil
	}
	s = s[1:]
	for {
		s = strings.TrimLeft(s, " ,")
		if s == "" {
			return "", nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return name, labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return "", nil, "", fmt.Errorf("malformed label in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+2:]
		var b strings.Builder
		closed := false
		for j := 0; j < len(s); j++ {
			c := s[j]
			if c == '\\' && j+1 < len(s) {
				j++
				switch s[j] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[j])
				}
				continue
			}
			if c == '"' {
				s, closed = s[j+1:], true
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return "", nil, "", fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = b.String()
	}
}

// promKey renders name and labels in canonical (sorted) form.
func promKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labels[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sum adds up every series of name whose labels include the given pairs
// ("k", "v", …): with all of a series' labels given it reads that one
// series, with fewer it aggregates, e.g. shed counts over every reason.
// Absent series read 0 (a series not yet created has counted nothing).
func (s promSnapshot) sum(name string, kv ...string) float64 {
	total := 0.0
	for _, smp := range s {
		if smp.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(kv); i += 2 {
			if smp.Labels[kv[i]] != kv[i+1] {
				match = false
				break
			}
		}
		if match {
			total += smp.Value
		}
	}
	return total
}

// delta returns after − before for sum(name, kv…): the increase of a
// counter, or of a histogram's _sum or _count, between two scrapes.
func delta(before, after promSnapshot, name string, kv ...string) float64 {
	return after.sum(name, kv...) - before.sum(name, kv...)
}

// serverDeltas are the snoopd counters the traced runs read.
type serverDeltas struct {
	admitted, shed, queueNs float64 // queueNs: mean admission queue wait per admitted request
}

// serverMetrics reads the solve cache and admission counters of a snoopd
// between two scrapes into rep's per-layer metrics and returns the
// admission deltas.
func serverMetrics(rep *report, before, after promSnapshot) serverDeltas {
	d := func(name string, kv ...string) float64 { return delta(before, after, name, kv...) }
	hits := d("snoopmva_solvecache_hits_total", "cache", "snoopd")
	if lookups := hits + d("snoopmva_solvecache_misses_total", "cache", "snoopd") +
		d("snoopmva_solvecache_coalesced_total", "cache", "snoopd"); lookups > 0 {
		rep.Metrics["solvecache.hit_ratio"] = hits / lookups
	}
	rep.Metrics["solvecache.evictions"] = d("snoopmva_solvecache_evictions_total", "cache", "snoopd")
	s := serverDeltas{
		admitted: d("snoopmva_admission_admitted_total", "limiter", "snoopd"),
		shed:     d("snoopmva_admission_shed_total", "limiter", "snoopd"),
	}
	if s.admitted > 0 {
		s.queueNs = 1e9 * d("snoopmva_admission_queue_wait_seconds_sum", "limiter", "snoopd") / s.admitted
	}
	if s.admitted+s.shed > 0 {
		rep.Metrics["admission.shed_ratio"] = s.shed / (s.admitted + s.shed)
	}
	return s
}

// scrape fetches and parses url.
func scrape(client *http.Client, url string) (promSnapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}
