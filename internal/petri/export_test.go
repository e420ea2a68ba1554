package petri

import (
	"context"

	"snoopmva/internal/markov"
)

// AnalyzeBoth builds n's reachability graph once and solves its embedded
// chain twice: with the Gauss–Seidel solver Analyze uses, and with dense
// GTH elimination of the same rows as the reference. It returns each
// stationary vector with the measures derived from it.
func AnalyzeBoth(n *Net, opts Options) (gs, gth *Result, piGS, piGTH []float64, err error) {
	ctx := context.Background()
	g, err := n.explore(ctx, opts.withDefaults())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ns := g.len()
	if piGS, err = markov.SteadyStateGaussSeidel(ctx, ns, g.row, markov.IterOptions{}); err != nil {
		return nil, nil, nil, nil, err
	}
	d, err := markov.NewDense(ns)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	for i := 0; i < ns; i++ {
		cols, probs := g.row(i)
		for k, j := range cols {
			d.Add(i, int(j), probs[k])
		}
	}
	if piGTH, err = markov.SteadyStateGTH(d); err != nil {
		return nil, nil, nil, nil, err
	}
	if gs, err = n.measures(g, piGS); err != nil {
		return nil, nil, nil, nil, err
	}
	if gth, err = n.measures(g, piGTH); err != nil {
		return nil, nil, nil, nil, err
	}
	return gs, gth, piGS, piGTH, nil
}
