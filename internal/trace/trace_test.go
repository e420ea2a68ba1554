package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"snoopmva/internal/workload"
)

func genCfg(n int) GeneratorConfig {
	return GeneratorConfig{
		N:        n,
		Workload: workload.AppendixA(workload.Sharing5),
		Seed:     42,
	}
}

func TestClassString(t *testing.T) {
	if Private.String() != "private" || SRO.String() != "sro" || SW.String() != "sw" {
		t.Error("class strings wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown class string wrong")
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := genCfg(0)
	if _, err := NewGenerator(bad); err == nil {
		t.Error("N=0 accepted")
	}
	bad = genCfg(2)
	bad.Workload.HSw = 2
	if _, err := NewGenerator(bad); err == nil {
		t.Error("invalid workload accepted")
	}
	bad = genCfg(2)
	bad.SWBlocks = 4
	bad.SWWorkingSet = 8
	if _, err := NewGenerator(bad); err == nil {
		t.Error("working set larger than pool accepted")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, err := NewGenerator(genCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(genCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		p := i % 2
		ra, _ := a.Next(p)
		rb, _ := b.Next(p)
		if ra != rb {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestGeneratorMatchesTargets(t *testing.T) {
	g, err := NewGenerator(genCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	w := workload.AppendixA(workload.Sharing5)
	const n = 200000
	var classCount [3]int
	var writes [3]int
	// Shadow LRU of the private working-set capacity: the fraction of
	// private references hitting it should track h_private.
	var lru []uint32
	const lruCap = 128
	reuse, privRefs := 0, 0
	for i := 0; i < n; i++ {
		r, ok := g.Next(0)
		if !ok {
			t.Fatal("generator exhausted")
		}
		classCount[r.Class]++
		if r.Write {
			writes[r.Class]++
		}
		if r.Class == Private {
			privRefs++
			hitAt := -1
			for j, b := range lru {
				if b == r.Block {
					hitAt = j
					break
				}
			}
			if hitAt >= 0 {
				reuse++
				lru = append(lru[:hitAt], lru[hitAt+1:]...)
			} else if len(lru) >= lruCap {
				lru = lru[1:]
			}
			lru = append(lru, r.Block)
		}
	}
	// Stream mix ~ (0.95, 0.03, 0.02).
	if f := float64(classCount[Private]) / n; math.Abs(f-w.PPrivate) > 0.01 {
		t.Errorf("private fraction = %v, want %v", f, w.PPrivate)
	}
	if f := float64(classCount[SW]) / n; math.Abs(f-w.PSw) > 0.005 {
		t.Errorf("sw fraction = %v, want %v", f, w.PSw)
	}
	// Read ratio: private writes ~ 30%.
	if f := float64(writes[Private]) / float64(classCount[Private]); math.Abs(f-(1-w.RPrivate)) > 0.01 {
		t.Errorf("private write fraction = %v, want %v", f, 1-w.RPrivate)
	}
	// SRO never writes.
	if writes[SRO] != 0 {
		t.Errorf("sro writes = %d", writes[SRO])
	}
	// Reuse (a proxy for hit rate) should be near h_private once warm.
	if f := float64(reuse) / float64(privRefs); math.Abs(f-w.HPrivate) > 0.03 {
		t.Errorf("private reuse = %v, want ~%v", f, w.HPrivate)
	}
}

func TestRoundTripSerialization(t *testing.T) {
	g, err := NewGenerator(genCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	var refs []Ref
	for i := 0; i < 500; i++ {
		r, _ := g.Next(i % 3)
		refs = append(refs, r)
	}
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	for _, r := range refs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if tw.Count() != 500 {
		t.Errorf("Count = %d", tw.Count())
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d: %+v != %+v", i, got[i], refs[i])
		}
	}
}

func TestReaderErrors(t *testing.T) {
	// Bad magic.
	if _, err := ReadAll(bytes.NewReader([]byte("XXXX1234"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated record.
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	if err := tw.Write(Ref{Proc: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadAll(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated record accepted")
	}
	// Invalid class byte.
	bad := append([]byte{}, magic[:]...)
	bad = append(bad, []byte{0, 0, 0x05, 0, 0, 0, 0, 0}...)
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Error("invalid class accepted")
	}
	// Empty stream: EOF immediately.
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream error = %v, want EOF", err)
	}
}

func TestGeneratorWorkingSetBounded(t *testing.T) {
	cfg := genCfg(1)
	cfg.SWWorkingSet = 4
	cfg.SWBlocks = 32
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		g.Next(0)
	}
	if got := len(g.sets[0][SW]); got > 4 {
		t.Errorf("sw working set grew to %d, cap 4", got)
	}
}
