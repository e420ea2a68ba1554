// Package exp is the experiment registry: one entry per table and figure
// in the paper's evaluation (plus the Section 4 point comparisons and the
// solution-cost demonstration), each able to regenerate its artifact from
// this repository's models and report paper-vs-measured numbers.
//
// DESIGN.md §5 is the index. Render is the one way to print the
// reports: cmd/paperrepro calls it, and TestAllExperimentsRun checks that
// its output over All() is the generated region of EXPERIMENTS.md.
package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"snoopmva/internal/tables"
)

// RunConfig tunes how much of the expensive machinery each experiment runs.
type RunConfig struct {
	// Ctx cancels a run in flight: the GTPN reachability analyses and
	// simulator cycle loops inside an experiment check it periodically.
	// Nil means context.Background().
	Ctx context.Context
	// GTPNMaxN bounds the detailed GTPN comparator (its cost grows
	// rapidly with N). Zero means 6; negative disables GTPN columns.
	GTPNMaxN int
	// SimCycles is the detailed simulator's measurement window. Zero
	// means 300000; negative disables simulator columns.
	SimCycles int64
	// Seed drives the simulator. Zero means 1988.
	Seed uint64
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.GTPNMaxN == 0 {
		c.GTPNMaxN = 6
	}
	if c.SimCycles == 0 {
		c.SimCycles = 300000
	}
	if c.Seed == 0 {
		c.Seed = 1988
	}
	return c
}

// Comparison is one paper-vs-measured cell.
type Comparison struct {
	Label    string
	Paper    float64
	Measured float64
}

// RelErr returns |measured − paper| / |paper|. Against a zero paper value
// the relative error is unbounded and RelErr returns +Inf.
func (c Comparison) RelErr() float64 {
	if c.Paper == 0 {
		//lint:allow naninf relative error against a zero reference is mathematically unbounded; callers treat Inf as "no reference"
		return math.Inf(1)
	}
	return math.Abs(c.Measured-c.Paper) / math.Abs(c.Paper)
}

// Report is the output of one experiment run.
type Report struct {
	ID          string
	Title       string
	Notes       []string
	Tables      []*tables.Table
	Plots       []*tables.Plot
	Comparisons []Comparison
}

// WriteMarkdown renders the report's tables as Markdown (plots fall back
// to fenced ASCII).
func (r *Report) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "> %s\n\n", n); err != nil {
			return err
		}
	}
	for _, p := range r.Plots {
		if _, err := fmt.Fprintln(w, "```"); err != nil {
			return err
		}
		if err := p.WriteASCII(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, "```"); err != nil {
			return err
		}
	}
	for _, t := range r.Tables {
		if err := t.WriteMarkdown(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if len(r.Comparisons) > 0 {
		ct := tables.New("Paper vs measured", "quantity", "paper", "measured", "rel err %")
		for _, c := range r.Comparisons {
			ct.AddRow(c.Label, c.Paper, c.Measured, fmt.Sprintf("%.1f", c.RelErr()*100))
		}
		if err := ct.WriteMarkdown(w); err != nil {
			return err
		}
	}
	return nil
}

// Render runs each experiment under cfg and writes its report as
// Markdown followed by a blank line. Over All() with the zero RunConfig
// it writes the generated region of EXPERIMENTS.md byte for byte.
func Render(w io.Writer, cfg RunConfig, es []Experiment) error {
	for _, e := range es {
		rep, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := rep.WriteMarkdown(w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one registry entry.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(RunConfig) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: internal invariant violated: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
