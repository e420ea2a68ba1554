package snoopmva

import (
	"strings"
	"time"

	"snoopmva/internal/obs"
)

// Root-package metrics (catalog in DESIGN.md §12): the degradation ladder
// and the campaign runner made observable. Series are materialized at
// init; recording costs one atomic update per event.
var (
	stageFallbackGTPN = obs.Default.Counter("snoopmva_solvebest_stage_fallbacks_total", "SolveBest ladder stages abandoned to a cheaper model.", obs.L("stage", "gtpn"))
	stageFallbackSim  = obs.Default.Counter("snoopmva_solvebest_stage_fallbacks_total", "SolveBest ladder stages abandoned to a cheaper model.", obs.L("stage", "simulation"))

	bestByMethod = map[Method]*obs.Counter{
		MethodGTPN:       obs.Default.Counter("snoopmva_solvebest_results_total", "SolveBest results by producing model.", obs.L("method", "gtpn")),
		MethodSimulation: obs.Default.Counter("snoopmva_solvebest_results_total", "SolveBest results by producing model.", obs.L("method", "simulation")),
		MethodMVA:        obs.Default.Counter("snoopmva_solvebest_results_total", "SolveBest results by producing model.", obs.L("method", "mva")),
	}

	campaignPointsOK      = obs.Default.Counter("snoopmva_campaign_points_total", "Campaign points completed, by outcome.", obs.L("outcome", "ok"))
	campaignPointsFailed  = obs.Default.Counter("snoopmva_campaign_points_total", "Campaign points completed, by outcome.", obs.L("outcome", "failed"))
	campaignPointsResumed = obs.Default.Counter("snoopmva_campaign_points_total", "Campaign points completed, by outcome.", obs.L("outcome", "resumed"))

	campaignStageSkipped = map[string]*obs.Counter{
		stageGTPN: obs.Default.Counter("snoopmva_campaign_stage_skipped_total", "Ladder stages skipped by the open circuit breaker.", obs.L("stage", "gtpn")),
		stageSim:  obs.Default.Counter("snoopmva_campaign_stage_skipped_total", "Ladder stages skipped by the open circuit breaker.", obs.L("stage", "simulation")),
	}

	campaignPointsPerSec = obs.Default.Gauge("snoopmva_campaign_points_per_sec", "Throughput of the most recently finished campaign (points computed by that run per second).")
	campaignRuns         = obs.Default.Counter("snoopmva_campaign_runs_total", "Campaign runs finished (successfully or not).")
)

// recordSolveBest feeds one successful SolveBest outcome into the
// metrics: which model produced the numbers, and which stages degraded on
// the way there.
func recordSolveBest(b Result) {
	if c, ok := bestByMethod[b.Method]; ok {
		c.Inc()
	}
	if !b.Degraded {
		return
	}
	// FallbackReason lists the abandoned stages as "stage: cause" clauses;
	// Method tells us which rungs ran, so count the ones above it.
	switch b.Method {
	case MethodSimulation:
		stageFallbackGTPN.Inc()
	case MethodMVA:
		// Degraded MVA means at least one upper rung was attempted and
		// failed; FallbackReason distinguishes which.
		if strings.Contains(b.FallbackReason, "gtpn:") {
			stageFallbackGTPN.Inc()
		}
		if strings.Contains(b.FallbackReason, "simulation:") {
			stageFallbackSim.Inc()
		}
	}
}

// recordCampaign feeds a finished campaign run into the metrics.
func recordCampaign(res CampaignResult, elapsed time.Duration) {
	campaignRuns.Inc()
	for _, pr := range res.Results {
		switch {
		case pr.Resumed:
			campaignPointsResumed.Inc()
		case pr.Err != "":
			campaignPointsFailed.Inc()
		default:
			campaignPointsOK.Inc()
		}
	}
	if secs := elapsed.Seconds(); secs > 0 && res.Computed > 0 {
		campaignPointsPerSec.Set(float64(res.Computed) / secs)
	}
}
