package snoopmva

import (
	"context"
	"math"
	"testing"
)

func TestSolveHierarchicalDegenerates(t *testing.T) {
	w := AppendixA(Sharing5)
	h, err := SolveHierarchical(WriteOnce(), w, HierarchicalConfig{
		Clusters: 1, PerCluster: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Solve(WriteOnce(), w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Speedup-flat.Speedup)/flat.Speedup > 1e-6 {
		t.Errorf("1-cluster hierarchy %v != flat %v", h.Speedup, flat.Speedup)
	}
}

func TestSolveHierarchicalScalesPastFlatBus(t *testing.T) {
	w := AppendixA(Sharing5)
	h, err := SolveHierarchical(WriteOnce(), w, HierarchicalConfig{
		Clusters: 8, PerCluster: 8,
		GlobalMissFraction: 0.1, GlobalBcFraction: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Solve(WriteOnce(), w, 64)
	if err != nil {
		t.Fatal(err)
	}
	if h.Speedup <= flat.Speedup {
		t.Errorf("8x8 hierarchy %v should beat flat 64 %v", h.Speedup, flat.Speedup)
	}
	if h.TotalProcessors != 64 {
		t.Errorf("total = %d", h.TotalProcessors)
	}
}

func TestSolveHierarchicalValidation(t *testing.T) {
	w := AppendixA(Sharing5)
	if _, err := SolveHierarchical(WithMods(9), w, HierarchicalConfig{Clusters: 2, PerCluster: 2}); err == nil {
		t.Error("bad protocol accepted")
	}
	if _, err := SolveHierarchical(WriteOnce(), w, HierarchicalConfig{Clusters: 0, PerCluster: 2}); err == nil {
		t.Error("bad shape accepted")
	}
}

func TestClusterShapes(t *testing.T) {
	w := AppendixA(Sharing5)
	shapes, err := ClusterShapes(WriteOnce(), w, 16, HierarchicalConfig{
		GlobalMissFraction: 0.15, GlobalBcFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Divisors of 16: 1,2,4,8,16 → five shapes.
	if len(shapes) != 5 {
		t.Fatalf("shapes = %d, want 5", len(shapes))
	}
	if shapes[0].Clusters != 1 || shapes[len(shapes)-1].Clusters != 16 {
		t.Errorf("shape ordering wrong: %+v", shapes)
	}
	for _, s := range shapes {
		if s.TotalProcessors != 16 {
			t.Errorf("shape %dx%d total %d", s.Clusters, s.PerCluster, s.TotalProcessors)
		}
	}
	// Some clustered shape must beat the flat 1x16 bus at this escalation
	// level (1x16 reads 5.32; the clustered shapes read 9.20–13.31).
	flat := shapes[0].Speedup
	beaten := false
	for _, s := range shapes[1:] {
		beaten = beaten || s.Speedup > flat
	}
	if !beaten {
		t.Errorf("no clustered shape beat the flat bus: %+v", shapes)
	}
}

func TestSimulateAdaptiveThreshold(t *testing.T) {
	w := AppendixA(Sharing20)
	res, err := SimulateContext(context.Background(), Dragon(), w, 6, SimOptions{
		Seed: 3, MeasureCycles: 60000, AdaptiveThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 0 {
		t.Errorf("bad speedup %v", res.Speedup)
	}
}
