// Package sensitivity quantifies how the MVA model's outputs respond to
// its workload parameters: one-at-a-time sweeps, local elasticities, and
// ranked (tornado) summaries.
//
// The paper closes by noting that using the model well "all that is needed
// are workload measurement studies to aid in the assignment of parameter
// values" — this package answers the prerequisite question of *which*
// parameters the predictions are actually sensitive to, i.e. where
// measurement effort should go.
package sensitivity

import (
	"fmt"
	"math"
	"sort"

	"snoopmva/internal/mva"
	"snoopmva/internal/stats"
	"snoopmva/internal/workload"
)

// Param names one basic workload parameter.
type Param string

// The tunable workload parameters (stream probabilities are swept jointly
// through PSw/PSro with PPrivate absorbing the remainder, preserving the
// partition of unity).
const (
	Tau         Param = "tau"
	PSro        Param = "p_sro"
	PSw         Param = "p_sw"
	HPrivate    Param = "h_private"
	HSro        Param = "h_sro"
	HSw         Param = "h_sw"
	RPrivate    Param = "r_private"
	RSw         Param = "r_sw"
	AmodPrivate Param = "amod_private"
	AmodSw      Param = "amod_sw"
	CsupplySro  Param = "csupply_sro"
	CsupplySw   Param = "csupply_sw"
	WbCsupply   Param = "wb_csupply"
	RepP        Param = "rep_p"
	RepSw       Param = "rep_sw"
)

// Params lists every tunable parameter in a stable order.
func Params() []Param {
	return []Param{
		Tau, PSro, PSw,
		HPrivate, HSro, HSw,
		RPrivate, RSw,
		AmodPrivate, AmodSw,
		CsupplySro, CsupplySw, WbCsupply,
		RepP, RepSw,
	}
}

// Get returns the parameter's current value in w.
func Get(w workload.Params, p Param) (float64, error) {
	switch p {
	case Tau:
		return w.Tau, nil
	case PSro:
		return w.PSro, nil
	case PSw:
		return w.PSw, nil
	case HPrivate:
		return w.HPrivate, nil
	case HSro:
		return w.HSro, nil
	case HSw:
		return w.HSw, nil
	case RPrivate:
		return w.RPrivate, nil
	case RSw:
		return w.RSw, nil
	case AmodPrivate:
		return w.AmodPrivate, nil
	case AmodSw:
		return w.AmodSw, nil
	case CsupplySro:
		return w.CsupplySro, nil
	case CsupplySw:
		return w.CsupplySw, nil
	case WbCsupply:
		return w.WbCsupply, nil
	case RepP:
		return w.RepP, nil
	case RepSw:
		return w.RepSw, nil
	default:
		return 0, fmt.Errorf("sensitivity: unknown parameter %q", p)
	}
}

// Set returns a copy of w with the parameter changed. Stream probabilities
// keep the partition of unity by adjusting PPrivate.
func Set(w workload.Params, p Param, v float64) (workload.Params, error) {
	switch p {
	case Tau:
		w.Tau = v
	case PSro:
		w.PPrivate += w.PSro - v
		w.PSro = v
	case PSw:
		w.PPrivate += w.PSw - v
		w.PSw = v
	case HPrivate:
		w.HPrivate = v
	case HSro:
		w.HSro = v
	case HSw:
		w.HSw = v
	case RPrivate:
		w.RPrivate = v
	case RSw:
		w.RSw = v
	case AmodPrivate:
		w.AmodPrivate = v
	case AmodSw:
		w.AmodSw = v
	case CsupplySro:
		w.CsupplySro = v
	case CsupplySw:
		w.CsupplySw = v
	case WbCsupply:
		w.WbCsupply = v
	case RepP:
		w.RepP = v
	case RepSw:
		w.RepSw = v
	default:
		return w, fmt.Errorf("sensitivity: unknown parameter %q", p)
	}
	if err := w.Validate(); err != nil {
		return w, fmt.Errorf("sensitivity: %s=%v: %w", p, v, err)
	}
	return w, nil
}

// Metric selects the model output under study.
type Metric int

const (
	// Speedup is N·(τ+T_supply)/R.
	Speedup Metric = iota
	// BusUtilization is U_bus.
	BusUtilization
	// ResponseTime is R.
	ResponseTime
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Speedup:
		return "speedup"
	case BusUtilization:
		return "bus-utilization"
	case ResponseTime:
		return "response-time"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

func metricOf(r mva.Result, m Metric) (float64, error) {
	switch m {
	case Speedup:
		return r.Speedup, nil
	case BusUtilization:
		return r.UBus, nil
	case ResponseTime:
		return r.R, nil
	default:
		return 0, fmt.Errorf("sensitivity: unknown metric %v", m)
	}
}

// Study fixes the configuration the parameters are perturbed around.
type Study struct {
	Model  mva.Model
	N      int
	Metric Metric
	// Options passes solver options through (ablation studies compose).
	Options mva.Options
}

func (s Study) eval(w workload.Params) (float64, error) {
	m := s.Model
	m.Workload = w
	r, err := m.Solve(s.N, s.Options)
	if err != nil {
		return 0, err
	}
	return metricOf(r, s.Metric)
}

// Point is one sweep sample.
type Point struct {
	Value  float64 // parameter value
	Metric float64 // model output
}

// SweepParam evaluates the study at each parameter value. Values that make
// the workload invalid are skipped (reported via the skipped count); an
// unknown parameter is an error before any value is evaluated.
func (s Study) SweepParam(p Param, values []float64) (points []Point, skipped int, err error) {
	if _, err := Get(s.Model.Workload, p); err != nil {
		return nil, 0, err
	}
	for _, v := range values {
		w, serr := Set(s.Model.Workload, p, v)
		if serr != nil {
			skipped++
			continue
		}
		y, eerr := s.eval(w)
		if eerr != nil {
			return nil, skipped, eerr
		}
		points = append(points, Point{Value: v, Metric: y})
	}
	return points, skipped, nil
}

// Elasticity is the local normalized sensitivity of the metric to one
// parameter: (dM/M)/(dp/p), estimated by a symmetric finite difference.
type Elasticity struct {
	Param      Param
	Base       float64 // parameter base value
	BaseMetric float64
	Value      float64 // d ln M / d ln p; meaningful only when OK
	// OK reports whether Value is defined. Parameters at zero (no
	// relative perturbation defined) or whose perturbation leaves the
	// valid region have OK false and Value zero.
	OK bool
}

// Elasticities computes the local elasticity of the study metric for every
// parameter, ranked by absolute magnitude. Parameters at zero (no relative
// perturbation defined) or whose perturbation leaves the valid region are
// reported with OK false; they sort after all defined entries.
func (s Study) Elasticities(relStep float64) ([]Elasticity, error) {
	if relStep <= 0 {
		relStep = 0.02
	}
	base, err := s.eval(s.Model.Workload)
	if err != nil {
		return nil, err
	}
	var out []Elasticity
	for _, p := range Params() {
		v, err := Get(s.Model.Workload, p)
		if err != nil {
			return nil, err
		}
		e := Elasticity{Param: p, Base: v, BaseMetric: base}
		if v != 0 && base != 0 {
			lo, errLo := Set(s.Model.Workload, p, v*(1-relStep))
			hi, errHi := Set(s.Model.Workload, p, v*(1+relStep))
			if errLo == nil && errHi == nil {
				yLo, err := s.eval(lo)
				if err != nil {
					return nil, err
				}
				yHi, err := s.eval(hi)
				if err != nil {
					return nil, err
				}
				e.Value = ((yHi - yLo) / base) / (2 * relStep)
				e.OK = true
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].OK != out[j].OK {
			return out[i].OK // undefined entries sink to the bottom
		}
		if !out[i].OK {
			return out[i].Param < out[j].Param
		}
		ai, aj := math.Abs(out[i].Value), math.Abs(out[j].Value)
		if !stats.ApproxEq(ai, aj, 0) {
			return ai > aj
		}
		return out[i].Param < out[j].Param
	})
	return out, nil
}

// TornadoBar is one bar of a tornado summary: the metric's range when a
// parameter moves across [lo, hi] with everything else fixed.
type TornadoBar struct {
	Param        Param
	Lo, Hi       float64 // parameter range actually evaluated
	MetricAtLo   float64
	MetricAtHi   float64
	AbsoluteSpan float64
}

// Tornado evaluates each parameter across ±rel of its base value (clamped
// to validity: an invalid low end becomes 0, an invalid high end 1) and
// ranks parameters by the induced metric span.
func (s Study) Tornado(rel float64) ([]TornadoBar, error) {
	if rel <= 0 {
		rel = 0.25
	}
	var out []TornadoBar
	for _, p := range Params() {
		v, err := Get(s.Model.Workload, p)
		if err != nil {
			return nil, err
		}
		if v == 0 {
			continue
		}
		lo, hi := v*(1-rel), v*(1+rel)
		wLo, errLo := Set(s.Model.Workload, p, lo)
		if errLo != nil {
			// Clamp into validity: every parameter accepts 0.
			lo = 0
			wLo, errLo = Set(s.Model.Workload, p, lo)
		}
		wHi, errHi := Set(s.Model.Workload, p, hi)
		if errHi != nil {
			// Probabilities above 1 are the common case.
			hi = 1
			wHi, errHi = Set(s.Model.Workload, p, hi)
		}
		if errLo != nil || errHi != nil {
			continue
		}
		yLo, err := s.eval(wLo)
		if err != nil {
			return nil, err
		}
		yHi, err := s.eval(wHi)
		if err != nil {
			return nil, err
		}
		out = append(out, TornadoBar{
			Param: p, Lo: lo, Hi: hi,
			MetricAtLo: yLo, MetricAtHi: yHi,
			AbsoluteSpan: math.Abs(yHi - yLo),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !stats.ApproxEq(out[i].AbsoluteSpan, out[j].AbsoluteSpan, 0) {
			return out[i].AbsoluteSpan > out[j].AbsoluteSpan
		}
		return out[i].Param < out[j].Param
	})
	return out, nil
}
