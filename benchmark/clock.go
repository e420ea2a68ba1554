package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on virtual machines whose host also runs other
// guests. Time a vCPU was ready to run but not running is "steal"; it
// stretches wall-clock measurements by an amount that changes from
// second to second (0% to over 70% on the 2-vCPU machine the benchmark
// was built on). Every timed phase therefore samples the machine's
// steal fraction — the share of the CPU time wanted that the host
// withheld — and reports each wall time d as d·(1 − f), f the fraction
// over the interval d covers: the time it would have taken had the CPUs
// run whenever they were ready. On a dedicated machine f is 0. Over ten
// seeds this cut the run-to-run spread of throughput and set-up time by
// a factor of 4 to 20; it is not applied to serve's median latency, which
// it made five times noisier (README.md has the numbers).

// machineTicks are the machine-wide CPU counters of /proc/stat, in ticks.
type machineTicks struct {
	busy, steal float64
}

func readMachine() machineTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machineTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return machineTicks{}
	}
	v := func(i int) float64 {
		x, _ := strconv.ParseFloat(f[i], 64)
		return x
	}
	return machineTicks{busy: v(1) + v(2) + v(3) + v(6) + v(7), steal: v(8)}
}

// stealFraction is the share of the CPU time wanted between a and b that
// was stolen: steal / (busy + steal), 0 when nothing ran.
func stealFraction(a, b machineTicks) float64 {
	steal := b.steal - a.steal
	wanted := b.busy - a.busy + steal
	if wanted <= 0 || steal <= 0 {
		return 0
	}
	return steal / wanted
}

// stealPeriod is how often a phase samples /proc/stat: long enough that
// the 10 ms ticks of two CPUs resolve the fraction to about 1%.
const stealPeriod = 500 * time.Millisecond

type tickSample struct {
	at    time.Time
	ticks machineTicks
}

// stealSampler samples the machine's CPU counters every stealPeriod
// from start until stop.
type stealSampler struct {
	samples []tickSample // appended by one goroutine at a time, read after stop
	done    chan struct{}
	exited  chan struct{}
}

func startSteal() *stealSampler {
	s := &stealSampler{done: make(chan struct{}), exited: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.exited)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	s.samples = append(s.samples, tickSample{at: time.Now(), ticks: readMachine()})
}

// stop takes a last sample and waits for the sampling goroutine.
func (s *stealSampler) stop() {
	close(s.done)
	<-s.exited
	s.sample()
}

// dedicated returns how long the interval [from, to] would have taken
// without steal: each sampling interval it overlaps contributes the
// overlap times (1 − that interval's steal fraction). Call it after stop.
// A nil sampler returns the interval as measured.
func (s *stealSampler) dedicated(from, to time.Time) time.Duration {
	if s == nil {
		return to.Sub(from)
	}
	var d float64
	for k := 1; k < len(s.samples); k++ {
		a, b := s.samples[k-1], s.samples[k]
		lo, hi := maxTime(from, a.at), minTime(to, b.at)
		if k == 1 {
			lo = from // before the first sample: its interval's fraction
		}
		if k == len(s.samples)-1 {
			hi = to // after the last sample likewise
		}
		if hi.After(lo) {
			d += float64(hi.Sub(lo)) * (1 - stealFraction(a.ticks, b.ticks))
		}
	}
	return time.Duration(d)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// overall is the steal fraction over the whole sampled phase.
func (s *stealSampler) overall() float64 {
	return stealFraction(s.samples[0].ticks, s.samples[len(s.samples)-1].ticks)
}

// opTime is one timed op: when it started and how long it took.
type opTime struct {
	start time.Time
	d     time.Duration
}

// dedicatedOps scales every op by the steal over it (none for a nil
// sampler), returning the latencies in ms and their sum.
func dedicatedOps(s *stealSampler, ops []opTime) (lat []float64, busy time.Duration) {
	for _, o := range ops {
		d := s.dedicated(o.start, o.start.Add(o.d))
		lat = append(lat, ms(d))
		busy += d
	}
	return lat, busy
}
