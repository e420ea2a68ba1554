package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// machineRepair builds the classic machine-repairman network: a delay
// station (think time z) plus a single queueing server (demand d).
func machineRepair(z, d float64) *Network {
	return &Network{Stations: []Station{
		{Name: "think", Kind: Delay, Demand: z},
		{Name: "server", Kind: Queueing, Demand: d},
	}}
}

func TestValidate(t *testing.T) {
	if err := (&Network{}).Validate(); err == nil {
		t.Error("empty network should fail validation")
	}
	bad := &Network{Stations: []Station{{Demand: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative demand should fail validation")
	}
	nan := &Network{Stations: []Station{{Demand: math.NaN()}}}
	if err := nan.Validate(); err == nil {
		t.Error("NaN demand should fail validation")
	}
	badKind := &Network{Stations: []Station{{Demand: 1, Kind: StationKind(9)}}}
	if err := badKind.Validate(); err == nil {
		t.Error("invalid kind should fail validation")
	}
	if err := machineRepair(2, 1).Validate(); err != nil {
		t.Errorf("valid network rejected: %v", err)
	}
}

func TestStationKindString(t *testing.T) {
	if Queueing.String() != "queueing" || Delay.String() != "delay" {
		t.Error("StationKind strings wrong")
	}
	if StationKind(7).String() != "StationKind(7)" {
		t.Error("unknown kind string wrong")
	}
}

func TestExactMVASingleCustomer(t *testing.T) {
	// With one customer there is no queueing: X = 1/(z+d).
	nw := machineRepair(4, 1)
	res, err := nw.SolveExact(1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Throughput, 1.0/5.0, 1e-12) {
		t.Errorf("X(1) = %v, want 0.2", res.Throughput)
	}
	if !approx(res.Utilization[1], 0.2, 1e-12) {
		t.Errorf("U(1) = %v, want 0.2", res.Utilization[1])
	}
	if !approx(res.Response, 5, 1e-12) {
		t.Errorf("R(1) = %v, want 5", res.Response)
	}
}

func TestExactMVAZeroPopulation(t *testing.T) {
	res, err := machineRepair(4, 1).SolveExact(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != 0 || res.Response != 0 {
		t.Errorf("N=0 should give zero metrics, got %+v", res)
	}
}

func TestExactMVAMatchesClosedFormRepairChain(t *testing.T) {
	// For the machine-repairman model the exact stationary solution is a
	// birth-death chain; cross-check MVA against direct computation for
	// N=3, z=2, d=1 (exponential assumptions).
	// Birth-death: state k = number at server, think rate per customer
	// 1/z, service rate 1/d.
	const z, d = 2.0, 1.0
	const n = 3
	// pi_k ∝ prod_{i=0}^{k-1} ((n-i)/z) * d^k  (rate in/rate out)
	pis := make([]float64, n+1)
	pis[0] = 1
	for k := 1; k <= n; k++ {
		pis[k] = pis[k-1] * (float64(n-k+1) / z) * d
	}
	var sum float64
	for _, p := range pis {
		sum += p
	}
	var util, ql float64
	for k := 0; k <= n; k++ {
		p := pis[k] / sum
		if k > 0 {
			util += p
		}
		ql += float64(k) * p
	}
	x := util / d

	res, err := machineRepair(z, d).SolveExact(n)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Throughput, x, 1e-10) {
		t.Errorf("X = %v, want %v", res.Throughput, x)
	}
	if !approx(res.QueueLength[1], ql, 1e-10) {
		t.Errorf("Q = %v, want %v", res.QueueLength[1], ql)
	}
}

func TestExactMVALittleLawHolds(t *testing.T) {
	nw := &Network{Stations: []Station{
		{Name: "cpu", Kind: Queueing, Demand: 0.5},
		{Name: "disk", Kind: Queueing, Demand: 0.8},
		{Name: "think", Kind: Delay, Demand: 5},
	}}
	for n := 1; n <= 30; n++ {
		res, err := nw.SolveExact(n)
		if err != nil {
			t.Fatal(err)
		}
		// Little's law at system level: N = X · (R_total)
		if !approx(float64(n), res.Throughput*res.Response, 1e-9) {
			t.Errorf("N=%d: Little violated: X·R = %v", n, res.Throughput*res.Response)
		}
		// Queue lengths sum to N.
		var q float64
		for _, v := range res.QueueLength {
			q += v
		}
		if !approx(q, float64(n), 1e-9) {
			t.Errorf("N=%d: ΣQ = %v", n, q)
		}
	}
}

func TestExactMVAThroughputMonotoneAndBounded(t *testing.T) {
	nw := &Network{Stations: []Station{
		{Name: "bus", Kind: Queueing, Demand: 1.2},
		{Name: "think", Kind: Delay, Demand: 3},
	}}
	prev := 0.0
	for n := 1; n <= 50; n++ {
		res, err := nw.SolveExact(n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput < prev-1e-12 {
			t.Fatalf("throughput not monotone at N=%d: %v < %v", n, res.Throughput, prev)
		}
		if res.Throughput > 1/1.2+1e-12 {
			t.Fatalf("throughput exceeds bottleneck bound at N=%d: %v", n, res.Throughput)
		}
		prev = res.Throughput
	}
	if !approx(prev, 1/1.2, 1e-3) {
		t.Errorf("X(50) = %v, should approach bottleneck bound %v", prev, 1/1.2)
	}
}

func TestSchweitzerCloseToExact(t *testing.T) {
	nw := &Network{Stations: []Station{
		{Name: "cpu", Kind: Queueing, Demand: 0.3},
		{Name: "disk1", Kind: Queueing, Demand: 0.5},
		{Name: "disk2", Kind: Queueing, Demand: 0.4},
		{Name: "think", Kind: Delay, Demand: 4},
	}}
	for _, n := range []int{1, 2, 5, 10, 20} {
		ex, err := nw.SolveExact(n)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := nw.SolveSchweitzer(n, SchweitzerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		relErr := math.Abs(ap.Throughput-ex.Throughput) / ex.Throughput
		if relErr > 0.05 {
			t.Errorf("N=%d: Schweitzer rel error %v > 5%%", n, relErr)
		}
		if ap.Iterations <= 0 {
			t.Errorf("N=%d: iterations not recorded", n)
		}
	}
}

func TestSchweitzerExactForNEqualOne(t *testing.T) {
	nw := machineRepair(3, 1)
	ex, _ := nw.SolveExact(1)
	ap, err := nw.SolveSchweitzer(1, SchweitzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With n=1 the (n-1)/n factor is 0, so approximate == exact.
	if !approx(ap.Throughput, ex.Throughput, 1e-9) {
		t.Errorf("Schweitzer(1) = %v, exact = %v", ap.Throughput, ex.Throughput)
	}
}

func TestSchweitzerZeroPopulation(t *testing.T) {
	res, err := machineRepair(3, 1).SolveSchweitzer(0, SchweitzerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != 0 {
		t.Errorf("X(0) = %v", res.Throughput)
	}
}

func TestSolveErrors(t *testing.T) {
	nw := machineRepair(3, 1)
	if _, err := nw.SolveExact(-1); err == nil {
		t.Error("expected error for negative population")
	}
	if _, err := nw.SolveSchweitzer(-1, SchweitzerOptions{}); err == nil {
		t.Error("expected error for negative population")
	}
	zero := &Network{Stations: []Station{{Kind: Queueing, Demand: 0}}}
	if _, err := zero.SolveExact(2); err == nil {
		t.Error("expected error for zero total demand")
	}
	bad := &Network{}
	if _, err := bad.SolveExact(2); err == nil {
		t.Error("expected validation error")
	}
	if _, err := bad.SolveSchweitzer(2, SchweitzerOptions{}); err == nil {
		t.Error("expected validation error")
	}
}

// Property: for random two-station repair networks, exact MVA satisfies
// Little's law and utilization = X·D.
func TestExactMVAPropertiesQuick(t *testing.T) {
	f := func(zRaw, dRaw uint16, nRaw uint8) bool {
		z := 0.1 + float64(zRaw%1000)/100
		d := 0.1 + float64(dRaw%500)/100
		n := 1 + int(nRaw%30)
		res, err := machineRepair(z, d).SolveExact(n)
		if err != nil {
			return false
		}
		if !approx(float64(n), res.Throughput*res.Response, 1e-8*float64(n)) {
			return false
		}
		return approx(res.Utilization[1], res.Throughput*d, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
