package workload

import "testing"

func TestClassString(t *testing.T) {
	if Private.String() != "private" || SRO.String() != "sro" || SW.String() != "sw" {
		t.Error("class strings wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown class string wrong")
	}
}

// An empty count is still a valid parameter set: every fraction with a
// zero denominator reads 0 and the partition is closed on p_private.
func TestCountsParamsZeroDenominators(t *testing.T) {
	p := Counts{}.Params(2.5)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := (Params{Tau: 2.5, PPrivate: 1}); p != want {
		t.Errorf("Counts{}.Params = %+v, want %+v", p, want)
	}
}
