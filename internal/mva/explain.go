package mva

import (
	"fmt"
	"io"
)

// Explain writes an equation-by-equation breakdown of r, a solved result
// of m: the derived inputs, each response-time component with the
// equation number it comes from, and the interference submodels. It is
// the model made auditable — every number can be traced to a line of
// Section 3.
func Explain(w io.Writer, m Model, r Result) error {
	d, err := m.Derive()
	if err != nil {
		return err
	}
	iv := d.Interference(r.N)
	t := d.Timing
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	steps := []func() error{
		func() error {
			return p("Configuration: %v, N=%d, τ=%.3g, T_supply=%.3g\n\n", r.Mods, r.N, d.Params.Tau, t.TSupply)
		},
		func() error {
			return p("Derived inputs (Section 2.3 / DESIGN.md §4):\n"+
				"  p_local      = %.4f   (request satisfied in the cache)\n"+
				"  p_bc         = %.4f   (broadcast: write-word/invalidate/update)\n"+
				"  p_rr         = %.4f   (remote read / read-mod)\n"+
				"  t_read       = %.4f   cycles (cache-supply mix %.3f, supplier wb %.3f, requester wb %.3f)\n"+
				"  broadcasts touch memory: %v\n\n",
				d.PLocal, d.PBc, d.PRr, d.TRead, d.PCsupplyRR, d.PCsupWbRR, d.PReqWbRR,
				d.BroadcastTouchesMemory)
		},
		func() error {
			return p("Bus submodel (equations 5-10):\n"+
				"  U_bus        = %.4f   (eq 7)\n"+
				"  Q̄_bus        = %.4f   customers seen by an arrival (eq 6)\n"+
				"  t_bus        = %.4f   mean access time (eq 9)\n"+
				"  t_res        = %.4f   mean residual life (eq 10)\n"+
				"  w_bus        = %.4f   mean wait (eq 5)\n\n",
				r.UBus, r.QBus, r.TBus, r.TResBus, r.WBus)
		},
		func() error {
			return p("Memory submodel (equations 11-12):\n"+
				"  U_mem        = %.4f   per module (eq 12, %d modules)\n"+
				"  w_mem        = %.4f   (eq 11)\n\n",
				r.UMem, t.BlockSize, r.WMem)
		},
		func() error {
			return p("Cache-interference submodel (eq 13, Appendix B):\n"+
				"  p            = %.4f   (cache must act on a bus request)\n"+
				"  p'           = %.4f   (held for the whole transaction)\n"+
				"  t_interf     = %.4f   cycles per interfering request\n"+
				"  n_interf     = %.4f   expected interfering requests\n\n",
				iv.P, iv.PPrime, iv.TInterference, r.NInterference)
		},
		func() error {
			return p("Response time (equation 1):\n"+
				"  τ            = %8.4f\n"+
				"  R_local      = %8.4f   (eq 2)\n"+
				"  R_broadcast  = %8.4f   (eq 3)\n"+
				"  R_remoteread = %8.4f   (eq 4)\n"+
				"  T_supply     = %8.4f\n"+
				"  R            = %8.4f   (converged in %d iterations)\n\n",
				d.Params.Tau, r.RLocal, r.RBroadcast, r.RRemoteRead, t.TSupply, r.R, r.Iterations)
		},
		func() error {
			return p("Results: speedup = N(τ+T_supply)/R = %.4f, processing power = %.4f\n",
				r.Speedup, r.ProcessingPower)
		},
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return err
		}
	}
	return nil
}
