package gridspec

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"snoopmva"
	"snoopmva/internal/wire"
)

func TestParseSizes(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"1,2,4", []int{1, 2, 4}, false},
		{"1..4", []int{1, 2, 3, 4}, false},
		{"1, 2, 4..6, 16", []int{1, 2, 4, 5, 6, 16}, false},
		{"4..1", nil, true},
		{"x", nil, true},
		{"", nil, true},
		{"0", nil, true},
		{"-3", nil, true},
		{"0..4", nil, true},
		{"-2..2", nil, true},
	}
	for _, tc := range cases {
		got, err := ParseSizes(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseSizes(%q): err = %v, want error %v", tc.in, err, tc.err)
			continue
		}
		if err == nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSizes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestParseSizesBound checks that a list may hold wire.MaxBatchPoints
// sizes and no more, whether the excess comes from one range or from a
// range plus single sizes.
func TestParseSizesBound(t *testing.T) {
	bound := wire.MaxBatchPoints
	if got, err := ParseSizes(fmt.Sprintf("1..%d", bound)); err != nil || len(got) != bound {
		t.Errorf("1..%d: %d sizes, err %v; want %d sizes", bound, len(got), err, bound)
	}
	for _, in := range []string{
		fmt.Sprintf("1..%d", bound+1),
		fmt.Sprintf("1..%d,7", bound),
		fmt.Sprintf("7,1..%d", bound),
	} {
		if _, err := ParseSizes(in); err == nil || !strings.Contains(err.Error(), strconv.Itoa(bound)) {
			t.Errorf("ParseSizes(%q): err = %v, want one naming the %d bound", in, err, bound)
		}
	}
}

func TestBuildGridShapeAndOrder(t *testing.T) {
	b := snoopmva.Budget{MaxStates: -1, SimCycles: -1}
	pts, err := BuildGrid("Illinois,Write-Once", "5,20", "2,4", b)
	if err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	// Nesting order: protocols outermost, sizes innermost. The campaign
	// fingerprint depends on this order, so it is part of the contract.
	wantN := []int{2, 4, 2, 4, 2, 4, 2, 4}
	for i, pt := range pts {
		if pt.N != wantN[i] {
			t.Errorf("point %d: N = %d, want %d", i, pt.N, wantN[i])
		}
		if pt.Budget != b {
			t.Errorf("point %d: budget not propagated", i)
		}
	}
	if pts[0].Protocol.String() != pts[3].Protocol.String() {
		t.Error("points 0..3 should share the first protocol")
	}
	if pts[0].Protocol.String() == pts[4].Protocol.String() {
		t.Error("points 4..7 should switch to the second protocol")
	}

	// "all" expands every named preset.
	all, err := BuildGrid("all", "5", "2", snoopmva.Budget{})
	if err != nil {
		t.Fatalf("BuildGrid(all): %v", err)
	}
	if len(all) != len(snoopmva.Protocols()) {
		t.Errorf("all × 1 × 1 = %d points, want %d", len(all), len(snoopmva.Protocols()))
	}
}

func TestBuildGridErrors(t *testing.T) {
	b := snoopmva.Budget{}
	if _, err := BuildGrid("NotAProtocol", "5", "2", b); err == nil {
		t.Error("unknown protocol should fail")
	}
	if _, err := BuildGrid("Illinois", "7", "2", b); err == nil {
		t.Error("bad sharing level should fail")
	}
	if _, err := BuildGrid("Illinois", "five", "2", b); err == nil {
		t.Error("non-numeric sharing should fail")
	}
	if _, err := BuildGrid("Illinois", "5", "zero", b); err == nil {
		t.Error("bad sizes should fail")
	}
}

func TestBuildGridFingerprintStable(t *testing.T) {
	// Two expansions of the same flags must fingerprint identically —
	// this is what lets cmd/campaign and cmd/campaignd resume each
	// other's journals.
	b := snoopmva.Budget{MaxStates: -1, SimCycles: -1, Seed: 7}
	p1, err := BuildGrid("all", "1,5,20", "1..8", b)
	if err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	p2, err := BuildGrid("all", "1,5,20", "1..8", b)
	if err != nil {
		t.Fatalf("BuildGrid: %v", err)
	}
	if snoopmva.CampaignFingerprint(p1) != snoopmva.CampaignFingerprint(p2) {
		t.Error("identical flags produced different fingerprints")
	}
}
