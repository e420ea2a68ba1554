package mva

import (
	"errors"
	"strings"
	"testing"

	"snoopmva/internal/workload"
)

func TestExplainCoversEveryEquation(t *testing.T) {
	m := Model{Workload: workload.AppendixA(workload.Sharing5)}
	res, err := m.Solve(10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Explain(&sb, m, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"eq 2", "eq 3", "eq 4", "eq 5", "eq 6", "eq 7", "eq 9", "eq 10",
		"eq 11", "eq 12", "eq 13", "equation 1",
		"p_local", "t_read", "speedup", "processing power",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q", want)
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n--
	if f.n <= 0 {
		return 0, errors.New("boom")
	}
	return len(p), nil
}

func TestExplainPropagatesWriteErrors(t *testing.T) {
	m := Model{Workload: workload.AppendixA(workload.Sharing5)}
	res, err := m.Solve(4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Explain(&failWriter{n: 2}, m, res); err == nil {
		t.Error("write error not propagated")
	}
}
