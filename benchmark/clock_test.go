package main

import (
	"testing"
	"time"
)

// Each sampling interval an op overlaps scales its share of the op by
// (1 − the interval's steal fraction).
func TestDedicatedScalesByIntervalSteal(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := &stealSampler{samples: []tickSample{
		{t0, machineTicks{busy: 0, steal: 0}},
		{t0.Add(time.Second), machineTicks{busy: 100, steal: 100}}, // half stolen
		{t0.Add(2 * time.Second), machineTicks{busy: 300, steal: 100}},
	}}
	for _, c := range []struct {
		from, to time.Duration
		want     time.Duration
	}{
		{0, time.Second, 500 * time.Millisecond},
		{500 * time.Millisecond, 1500 * time.Millisecond, 750 * time.Millisecond},
		{1200 * time.Millisecond, 1700 * time.Millisecond, 500 * time.Millisecond},
		{1500 * time.Millisecond, 2500 * time.Millisecond, time.Second}, // past the last sample
	} {
		if got := s.dedicated(t0.Add(c.from), t0.Add(c.to)); got != c.want {
			t.Errorf("dedicated(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := s.overall(); got != 0.25 { // 100 stolen of 400 wanted
		t.Errorf("overall = %v, want 0.25", got)
	}
}

func TestStealSamplerStops(t *testing.T) {
	s := startSteal()
	s.stop()
	if len(s.samples) < 2 {
		t.Fatalf("%d samples, want at least 2", len(s.samples))
	}
	from := s.samples[0].at
	if d := s.dedicated(from, from.Add(time.Millisecond)); d <= 0 || d > time.Millisecond {
		t.Errorf("dedicated 1ms = %v", d)
	}
}
