package resilience

import "snoopmva/internal/obs"

// Metrics of the circuit breaker (catalog in DESIGN.md §12): the
// operator's view of degradation in progress, circuits opening and
// closing and probes let through. Series are materialized at init; each
// event costs one atomic add.
var (
	breakerOpened = obs.Default.Counter("snoopmva_breaker_transitions_total", "Circuit-breaker state transitions.", obs.L("to", "open"))
	breakerClosed = obs.Default.Counter("snoopmva_breaker_transitions_total", "Circuit-breaker state transitions.", obs.L("to", "closed"))
	breakerProbes = obs.Default.Counter("snoopmva_breaker_probes_total", "Half-open probe attempts let through open circuits.")
)
