package snoopmva

import (
	"testing"
	"time"
)

// TestCampaignFingerprintIsStable pins the journal fingerprint of a fixed
// grid. Journals written by earlier builds carry this hash in their
// header; if it moves, every one of them refuses to resume. A change to
// the JSON form of Workload or Budget (a new tag, a renamed field) must
// not leak into it.
func TestCampaignFingerprintIsStable(t *testing.T) {
	points := []CampaignPoint{
		{Protocol: Illinois(), Workload: AppendixA(Sharing5), N: 4},
		{Protocol: WithMods(1, 3), Workload: StressWorkload(), N: 8,
			Budget: Budget{MaxStates: -1, SimTimeout: time.Second, Seed: 7}},
	}
	const want = "ad97822b8f3c84025e0e31e0326bf59031596e55274e55f1b3b6bc2d3065e094"
	if got := CampaignFingerprint(points); got != want {
		t.Fatalf("CampaignFingerprint = %s, want %s: journals written before this change would refuse to resume", got, want)
	}
}
