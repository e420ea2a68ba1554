// Package lint assembles the snooplint analyzer suite: the machine-checked
// numerical, cancellation, concurrency and allocation invariants of the
// solver tree. See DESIGN.md ("Machine-checked invariants") for the
// invariant each analyzer encodes and the //lint:allow suppression
// mechanism.
package lint

import (
	"snoopmva/internal/lint/analysis"
	"snoopmva/internal/lint/ctxloop"
	"snoopmva/internal/lint/floateq"
	"snoopmva/internal/lint/hotalloc"
	"snoopmva/internal/lint/metricreg"
	"snoopmva/internal/lint/naninf"
	"snoopmva/internal/lint/panicmsg"
	"snoopmva/internal/lint/senterr"
	"snoopmva/internal/lint/spawnbound"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxloop.Analyzer,
		floateq.Analyzer,
		hotalloc.Analyzer,
		metricreg.Analyzer,
		naninf.Analyzer,
		panicmsg.Analyzer,
		senterr.Analyzer,
		spawnbound.Analyzer,
	}
}
