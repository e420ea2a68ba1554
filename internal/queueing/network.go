// Package queueing implements textbook single-class Mean Value Analysis
// for closed networks, from Lazowska, Zahorjan, Graham & Sevcik,
// "Quantitative System Performance" [LZGS84] — the theory that the
// paper's customized mean-value equations specialize:
//
//   - exact MVA for closed product-form networks;
//   - approximate MVA (the Schweitzer / Bard fixed point), whose
//     "arriving customer sees the steady state with one customer removed"
//     heuristic is exactly the approximation in the paper's equation (6).
//
// No program links it. It is the oracle the reduction test in
// internal/mva checks the flat model against: with cache interference,
// memory interference and the residual-life term switched off, the flat
// model must match SolveSchweitzer on a delay station plus one bus.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// StationKind distinguishes queueing from delay (infinite-server) centers.
type StationKind int

const (
	// Queueing is a single-server FCFS/PS queueing center.
	Queueing StationKind = iota
	// Delay is an infinite-server (think-time) center.
	Delay
)

// String implements fmt.Stringer.
func (k StationKind) String() string {
	switch k {
	case Queueing:
		return "queueing"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("StationKind(%d)", int(k))
	}
}

// Station describes one service center of a closed network.
type Station struct {
	Name string
	Kind StationKind
	// Demand is the total service demand D = V·S (visits × service time)
	// per job cycle.
	Demand float64
}

// Network is a closed single-class queueing network.
type Network struct {
	Stations []Station
}

// Validate checks structural sanity.
func (nw *Network) Validate() error {
	if len(nw.Stations) == 0 {
		return errors.New("queueing: network has no stations")
	}
	for i, s := range nw.Stations {
		if s.Demand < 0 || math.IsNaN(s.Demand) || math.IsInf(s.Demand, 0) {
			return fmt.Errorf("queueing: station %d (%q) has invalid demand %v", i, s.Name, s.Demand)
		}
		if s.Kind != Queueing && s.Kind != Delay {
			return fmt.Errorf("queueing: station %d (%q) has invalid kind %v", i, s.Name, s.Kind)
		}
	}
	return nil
}

// Result holds the per-station and system-level outputs of an MVA solution.
type Result struct {
	N           int       // population the network was solved for
	Throughput  float64   // system throughput X(N), jobs per time unit
	Residence   []float64 // per-station residence time R_k(N)
	QueueLength []float64 // per-station mean queue length Q_k(N)
	Utilization []float64 // per-station utilization U_k(N)
	Response    float64   // total response time Σ R_k
	Iterations  int       // fixed-point iterations (0 for exact MVA)
}

// SolveExact runs exact single-class MVA for population n. Complexity is
// O(n·K). The recursion is the textbook [LZGS84] algorithm:
//
//	R_k(n) = D_k · (1 + Q_k(n-1))   (queueing)
//	R_k(n) = D_k                    (delay)
//	X(n)   = n / Σ R_k(n)
//	Q_k(n) = X(n) · R_k(n)
func (nw *Network) SolveExact(n int) (*Result, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("queueing: negative population %d", n)
	}
	k := len(nw.Stations)
	q := make([]float64, k)
	res := &Result{
		N:           n,
		Residence:   make([]float64, k),
		QueueLength: make([]float64, k),
		Utilization: make([]float64, k),
	}
	if n == 0 {
		return res, nil
	}
	r := make([]float64, k)
	var x float64
	for pop := 1; pop <= n; pop++ {
		var rtot float64
		for i, s := range nw.Stations {
			if s.Kind == Delay {
				r[i] = s.Demand
			} else {
				r[i] = s.Demand * (1 + q[i])
			}
			rtot += r[i]
		}
		if rtot == 0 {
			return nil, errors.New("queueing: zero total demand")
		}
		x = float64(pop) / rtot
		for i := range q {
			q[i] = x * r[i]
		}
	}
	res.Throughput = x
	copy(res.Residence, r)
	copy(res.QueueLength, q)
	for i, s := range nw.Stations {
		if s.Kind == Queueing {
			res.Utilization[i] = x * s.Demand
		}
	}
	for _, ri := range r {
		res.Response += ri
	}
	return res, nil
}

// SchweitzerOptions configures the approximate-MVA fixed point.
type SchweitzerOptions struct {
	Tol     float64 // convergence tolerance on queue lengths; 0 → 1e-10
	MaxIter int     // iteration budget; 0 → 10000
}

// SolveSchweitzer runs the Schweitzer/Bard approximate MVA: the arrival
// theorem's Q_k(n-1) is approximated by Q_k(n)·(n-1)/n and the resulting
// fixed point is iterated. Cost is O(iterations·K), independent of n —
// the same structural trick the paper's model uses to stay O(1) in system
// size.
func (nw *Network) SolveSchweitzer(n int, opts SchweitzerOptions) (*Result, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("queueing: negative population %d", n)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-10
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 10000
	}
	k := len(nw.Stations)
	res := &Result{
		N:           n,
		Residence:   make([]float64, k),
		QueueLength: make([]float64, k),
		Utilization: make([]float64, k),
	}
	if n == 0 {
		return res, nil
	}
	q := make([]float64, k)
	for i := range q {
		q[i] = float64(n) / float64(k)
	}
	r := make([]float64, k)
	var x float64
	scale := float64(n-1) / float64(n)
	for iter := 1; iter <= opts.MaxIter; iter++ {
		var rtot float64
		for i, s := range nw.Stations {
			if s.Kind == Delay {
				r[i] = s.Demand
			} else {
				r[i] = s.Demand * (1 + scale*q[i])
			}
			rtot += r[i]
		}
		if rtot == 0 {
			return nil, errors.New("queueing: zero total demand")
		}
		x = float64(n) / rtot
		var diff float64
		for i := range q {
			nq := x * r[i]
			diff += math.Abs(nq - q[i])
			q[i] = nq
		}
		if diff < opts.Tol {
			res.Iterations = iter
			break
		}
		if iter == opts.MaxIter {
			return nil, fmt.Errorf("queueing: Schweitzer fixed point did not converge in %d iterations", opts.MaxIter)
		}
	}
	res.Throughput = x
	copy(res.Residence, r)
	copy(res.QueueLength, q)
	for i, s := range nw.Stations {
		if s.Kind == Queueing {
			res.Utilization[i] = x * s.Demand
		}
	}
	for _, ri := range r {
		res.Response += ri
	}
	return res, nil
}
