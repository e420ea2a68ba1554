// Package gridspec parses the flag-level grid syntax shared by the
// campaign CLIs (cmd/campaign and cmd/campaignd): protocol lists,
// Appendix A sharing levels, and system-size lists with ranges. Both
// commands must expand identical flags into identical point grids — the
// campaign fingerprint is computed over the expanded grid, so any
// divergence here would make journals written by one CLI unresumable by
// the other.
package gridspec

import (
	"fmt"
	"strconv"
	"strings"

	"snoopmva"
	"snoopmva/internal/wire"
)

// BuildGrid expands the protocol × sharing × N cross product, in the
// deterministic nesting order (protocols outermost, sizes innermost)
// that the campaign fingerprint relies on.
//
// protoNames is a comma-separated list of preset names, or "all" for
// every named preset; sharings is a comma-separated list of Appendix A
// sharing levels (1, 5, 20); ns uses the ParseSizes syntax. Every point
// carries budget b.
func BuildGrid(protoNames, sharings, ns string, b snoopmva.Budget) ([]snoopmva.CampaignPoint, error) {
	var protos []snoopmva.Protocol
	if protoNames == "all" {
		protos = snoopmva.Protocols()
	} else {
		for _, name := range strings.Split(protoNames, ",") {
			p, ok := snoopmva.ProtocolByName(strings.TrimSpace(name))
			if !ok {
				return nil, fmt.Errorf("unknown protocol %q", name)
			}
			protos = append(protos, p)
		}
	}
	var workloads []snoopmva.Workload
	for _, s := range strings.Split(sharings, ",") {
		lvl, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad sharing level %q: %w", s, err)
		}
		switch lvl {
		case 1, 5, 20:
			workloads = append(workloads, snoopmva.AppendixA(snoopmva.Sharing(lvl)))
		default:
			return nil, fmt.Errorf("sharing must be 1, 5 or 20 (got %d)", lvl)
		}
	}
	sizes, err := ParseSizes(ns)
	if err != nil {
		return nil, err
	}
	var points []snoopmva.CampaignPoint
	for _, p := range protos {
		for _, w := range workloads {
			for _, n := range sizes {
				points = append(points, snoopmva.CampaignPoint{Protocol: p, Workload: w, N: n, Budget: b})
			}
		}
	}
	return points, nil
}

// ParseSizes parses system-size lists: "1,2,4", "1..16", and mixtures
// like "1,2,4..8,16". Every size must be at least 1, and a list may hold
// at most wire.MaxBatchPoints sizes, the bound /v1/sweep uses; a range
// is checked against it before it is expanded.
func ParseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, ".."); ok {
			a, err1 := strconv.Atoi(strings.TrimSpace(lo))
			b, err2 := strconv.Atoi(strings.TrimSpace(hi))
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad size range %q", part)
			}
			if a < 1 {
				return nil, fmt.Errorf("size range %q starts below 1", part)
			}
			if err := checkCount(len(out), b-a+1); err != nil {
				return nil, err
			}
			for n := a; n <= b; n++ {
				out = append(out, n)
			}
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("size %d is below 1", n)
		}
		if err := checkCount(len(out), 1); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no system sizes given")
	}
	return out, nil
}

// checkCount rejects adding more sizes to a list of have sizes when the
// total would exceed wire.MaxBatchPoints.
func checkCount(have, more int) error {
	if more > wire.MaxBatchPoints-have {
		return fmt.Errorf("more than %d system sizes", wire.MaxBatchPoints)
	}
	return nil
}
