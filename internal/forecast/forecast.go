// Package forecast implements the paper's §3.3 "scaling studies
// performance estimation without training": fitting Chinchilla-style
// scaling laws to historical run records harvested from provenance, and
// answering "what would this configuration cost" queries with a single
// inference step instead of a training run.
package forecast

import (
	"fmt"
	"math"
	"sort"
)

// RunRecord is the per-run feature vector extracted from provenance.
type RunRecord struct {
	RunID   string
	Family  string
	Params  float64 // model parameters
	Tokens  float64 // training tokens consumed
	GPUs    int
	Loss    float64
	EnergyJ float64
	TimeS   float64
}

// Law is a fitted scaling law L = E + A/N^Alpha + B/D^Beta.
type Law struct {
	E, A, Alpha, B, Beta float64
	RMSE                 float64
}

// Predict evaluates the law at (params, tokens).
func (l Law) Predict(params, tokens float64) float64 {
	return l.E + l.A/math.Pow(params, l.Alpha) + l.B/math.Pow(tokens, l.Beta)
}

// Fit estimates a scaling law from records: a coarse grid over the
// exponents with, for each candidate, a closed-form linear
// least-squares solve for (E, A, B) — the model is linear once Alpha
// and Beta are fixed. Requires at least four records spanning more than
// one parameter count.
func Fit(records []RunRecord) (Law, error) {
	if len(records) < 4 {
		return Law{}, fmt.Errorf("forecast: need at least 4 records, have %d", len(records))
	}
	distinct := map[float64]bool{}
	for _, r := range records {
		if r.Params <= 0 || r.Tokens <= 0 || r.Loss <= 0 {
			return Law{}, fmt.Errorf("forecast: record %q has non-positive features", r.RunID)
		}
		distinct[r.Params] = true
	}
	if len(distinct) < 2 {
		return Law{}, fmt.Errorf("forecast: records span a single model size; cannot identify the size exponent")
	}

	best := Law{RMSE: math.Inf(1)}
	for alpha := 0.1; alpha <= 0.91; alpha += 0.05 {
		for beta := 0.1; beta <= 0.91; beta += 0.05 {
			e, a, b, ok := solveLinear(records, alpha, beta)
			if !ok || a < 0 || b < 0 {
				continue
			}
			rmse := 0.0
			l := Law{E: e, A: a, Alpha: alpha, B: b, Beta: beta}
			for _, r := range records {
				d := l.Predict(r.Params, r.Tokens) - r.Loss
				rmse += d * d
			}
			rmse = math.Sqrt(rmse / float64(len(records)))
			if rmse < best.RMSE {
				l.RMSE = rmse
				best = l
			}
		}
	}
	if math.IsInf(best.RMSE, 1) {
		return Law{}, fmt.Errorf("forecast: no admissible fit found")
	}
	return best, nil
}

// solveLinear solves min ||y - (e + a*x1 + b*x2)|| for (e, a, b) via
// the 3x3 normal equations, where x1 = N^-alpha and x2 = D^-beta.
func solveLinear(records []RunRecord, alpha, beta float64) (e, a, b float64, ok bool) {
	var s [3][3]float64
	var rhs [3]float64
	for _, r := range records {
		x := [3]float64{1, math.Pow(r.Params, -alpha), math.Pow(r.Tokens, -beta)}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				s[i][j] += x[i] * x[j]
			}
			rhs[i] += x[i] * r.Loss
		}
	}
	sol, ok := solve3(s, rhs)
	if !ok {
		return 0, 0, 0, false
	}
	return sol[0], sol[1], sol[2], true
}

// solve3 solves a 3x3 linear system by Gaussian elimination with
// partial pivoting.
func solve3(m [3][3]float64, rhs [3]float64) ([3]float64, bool) {
	a := m
	b := rhs
	for col := 0; col < 3; col++ {
		pivot := col
		for row := col + 1; row < 3; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(a[pivot][col]) < 1e-18 {
			return [3]float64{}, false
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for row := col + 1; row < 3; row++ {
			f := a[row][col] / a[col][col]
			for k := col; k < 3; k++ {
				a[row][k] -= f * a[col][k]
			}
			b[row] -= f * b[col]
		}
	}
	var x [3]float64
	for row := 2; row >= 0; row-- {
		sum := b[row]
		for k := row + 1; k < 3; k++ {
			sum -= a[row][k] * x[k]
		}
		x[row] = sum / a[row][row]
	}
	return x, true
}

// CostModel predicts energy and time for unseen configurations from
// historical throughput: it fits energy-per-FLOP and seconds-per-FLOP
// per GPU-count by averaging records (FLOPs approximated as 6*N*D).
type CostModel struct {
	JoulesPerFlop  float64
	SecondsPerFlop map[int]float64 // keyed by GPU count
}

// FitCost builds a cost model from records.
func FitCost(records []RunRecord) (CostModel, error) {
	if len(records) == 0 {
		return CostModel{}, fmt.Errorf("forecast: no records")
	}
	cm := CostModel{SecondsPerFlop: make(map[int]float64)}
	var jSum float64
	var jN int
	secAgg := map[int][2]float64{} // gpu -> (sum, count)
	for _, r := range records {
		flops := 6 * r.Params * r.Tokens
		if flops <= 0 {
			continue
		}
		if r.EnergyJ > 0 {
			jSum += r.EnergyJ / flops
			jN++
		}
		if r.TimeS > 0 {
			agg := secAgg[r.GPUs]
			agg[0] += r.TimeS / flops
			agg[1]++
			secAgg[r.GPUs] = agg
		}
	}
	if jN == 0 {
		return CostModel{}, fmt.Errorf("forecast: no usable energy records")
	}
	cm.JoulesPerFlop = jSum / float64(jN)
	for g, agg := range secAgg {
		cm.SecondsPerFlop[g] = agg[0] / agg[1]
	}
	return cm, nil
}

// EstimateEnergy predicts joules for a configuration.
func (c CostModel) EstimateEnergy(params, tokens float64) float64 {
	return c.JoulesPerFlop * 6 * params * tokens
}

// EstimateTime predicts seconds on the given GPU count; when the exact
// count was never observed, the nearest observed count is scaled by the
// ideal strong-scaling ratio.
func (c CostModel) EstimateTime(params, tokens float64, gpus int) (float64, error) {
	flops := 6 * params * tokens
	if spf, ok := c.SecondsPerFlop[gpus]; ok {
		return spf * flops, nil
	}
	// Nearest observed GPU count (deterministic tie-break toward the
	// smaller count, whose throughput extrapolates more conservatively).
	counts := make([]int, 0, len(c.SecondsPerFlop))
	for g := range c.SecondsPerFlop {
		counts = append(counts, g)
	}
	sort.Ints(counts)
	bestG, bestDist := 0, math.Inf(1)
	for _, g := range counts {
		d := math.Abs(math.Log(float64(g)) - math.Log(float64(gpus)))
		if d < bestDist {
			bestDist, bestG = d, g
		}
	}
	if bestG == 0 {
		return 0, fmt.Errorf("forecast: no timing records at all")
	}
	return c.SecondsPerFlop[bestG] * flops * float64(bestG) / float64(gpus), nil
}
