package markov

import "context"

// gaussSeidel solves the chain p with SteadyStateGaussSeidel, handing it
// each row's non-zero entries in column order.
func gaussSeidel(p *Dense, opts IterOptions) ([]float64, error) {
	row := func(i int) (cols []int32, probs []float64) {
		for j := 0; j < p.N(); j++ {
			if v := p.At(i, j); v != 0 {
				cols, probs = append(cols, int32(j)), append(probs, v)
			}
		}
		return cols, probs
	}
	return SteadyStateGaussSeidel(context.Background(), p.N(), row, opts)
}
