// Package compare implements the paper's §3.4 hyperparameter-tuning
// support: grouping run summaries by configuration, selecting the best
// run under a metric, and ranking parameters by correlation with an
// outcome so that "users identify targets similar to their own and
// deduce the optimal hyperparameter values".
package compare

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// RunInfo is a flattened run summary (typically harvested from a PROV
// document's parameter and metric entities).
type RunInfo struct {
	ID      string
	Params  map[string]float64
	Tags    map[string]string
	Metrics map[string]float64
}

// Best returns the run minimizing (or maximizing) the metric.
func Best(runs []RunInfo, metric string, minimize bool) (RunInfo, error) {
	bestIdx := -1
	for i, r := range runs {
		v, ok := r.Metrics[metric]
		if !ok || math.IsNaN(v) {
			continue
		}
		if bestIdx == -1 {
			bestIdx = i
			continue
		}
		cur := runs[bestIdx].Metrics[metric]
		if (minimize && v < cur) || (!minimize && v > cur) {
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		return RunInfo{}, fmt.Errorf("compare: no run reports metric %q", metric)
	}
	return runs[bestIdx], nil
}

// Correlation computes the Pearson correlation between a numeric
// parameter and a metric over the runs that report both.
func Correlation(runs []RunInfo, param, metric string) (float64, int) {
	var xs, ys []float64
	for _, r := range runs {
		x, okx := r.Params[param]
		y, oky := r.Metrics[metric]
		if okx && oky && !math.IsNaN(x) && !math.IsNaN(y) {
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	n := len(xs)
	if n < 2 {
		return 0, n
	}
	mx, my := mean(xs), mean(ys)
	var num, dx, dy float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		dx += sq(xs[i] - mx)
		dy += sq(ys[i] - my)
	}
	if dx == 0 || dy == 0 {
		return 0, n
	}
	return num / math.Sqrt(dx*dy), n
}

// ParamInfluence is one row of a parameter-importance ranking.
type ParamInfluence struct {
	Param string
	Corr  float64
	N     int
}

// RankParams orders numeric parameters by |correlation| with the metric.
func RankParams(runs []RunInfo, metric string) []ParamInfluence {
	seen := map[string]bool{}
	for _, r := range runs {
		for p := range r.Params {
			seen[p] = true
		}
	}
	var out []ParamInfluence
	for p := range seen {
		corr, n := Correlation(runs, p, metric)
		out = append(out, ParamInfluence{Param: p, Corr: corr, N: n})
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := math.Abs(out[i].Corr), math.Abs(out[j].Corr)
		if ai != aj {
			return ai > aj
		}
		return out[i].Param < out[j].Param
	})
	return out
}

// Table renders runs as a fixed-width text table over the given metric
// columns, sorted by the first metric ascending.
func Table(runs []RunInfo, metricCols []string) string {
	sorted := append([]RunInfo(nil), runs...)
	if len(metricCols) > 0 {
		sort.Slice(sorted, func(i, j int) bool {
			return sorted[i].Metrics[metricCols[0]] < sorted[j].Metrics[metricCols[0]]
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s", "run")
	for _, m := range metricCols {
		fmt.Fprintf(&sb, "%16s", m)
	}
	sb.WriteByte('\n')
	for _, r := range sorted {
		fmt.Fprintf(&sb, "%-24s", r.ID)
		for _, m := range metricCols {
			if v, ok := r.Metrics[m]; ok {
				fmt.Fprintf(&sb, "%16.5g", v)
			} else {
				fmt.Fprintf(&sb, "%16s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sq(x float64) float64 { return x * x }
