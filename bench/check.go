package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// worseBy is how much worse b is than a, as a share of a: positive
// when b moved in the direction def calls worse.
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// values collects one metric of a set of results.
func values(rs []*result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spinDrift is how far host.spin_ms may move between the two sets of a
// selfcheck before the machine, not the benchmark, is blamed.
const spinDrift = 0.05

// selfCheckRuns is how many runs of each workload one set of a
// selfcheck holds: 2 sets × 4 workloads × 3 runs is about a quarter of
// an hour.
const selfCheckRuns = 3

// selfCheck runs every workload selfCheckRuns times in each of two
// sets, the second set in reverse workload order, and compares the
// sets' medians
// metric by metric against the bounds: the same code must give the
// same numbers. It returns an error when a pair of medians differs by
// more than its bound, or when the CPU canary says the machine itself
// changed between the sets.
func selfCheck(w io.Writer, bf *benchmarkFile, seed int64, runOne func(workload string, seed int64) (*result, error)) error {
	var sets [2]map[string][]*result
	for s := range sets {
		sets[s] = map[string][]*result{}
		order := slices.Clone(workloadNames)
		if s == 1 {
			slices.Reverse(order)
		}
		for _, wl := range order {
			for i := 0; i < selfCheckRuns; i++ {
				res, err := runOne(wl, seed+int64(i))
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d failed operations: %s", wl, res.Seed, res.Failed, res.FirstError)
				}
				sets[s][wl] = append(sets[s][wl], res)
			}
		}
	}
	var failed []string
	fmt.Fprintf(w, "%-13s %-26s %12s %12s %8s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, wl := range workloadNames {
		for _, def := range bf.EndToEnd {
			a, b := median(values(sets[0][wl], def.Name)), median(values(sets[1][wl], def.Name))
			diff := math.Abs(worseBy(def, a, b))
			verdict := ""
			if diff > def.Bound {
				verdict = "  DISAGREE"
				failed = append(failed, wl+"/"+def.Name)
			}
			fmt.Fprintf(w, "%-13s %-26s %12.5g %12.5g %7.2f%% %6.0f%%%s\n", wl, def.Name, a, b, diff*100, def.Bound*100, verdict)
		}
	}
	var spin [2][]float64
	for s := range sets {
		for _, rs := range sets[s] {
			spin[s] = append(spin[s], values(rs, "host.spin_ms")...)
		}
	}
	a, b := median(spin[0]), median(spin[1])
	drift := math.Abs(b-a) / a
	fmt.Fprintf(w, "%-13s %-26s %12.5g %12.5g %7.2f%% %6.0f%%\n", "(machine)", "host.spin_ms", a, b, drift*100, spinDrift*100)
	if drift > spinDrift {
		return fmt.Errorf("host.spin_ms moved %.1f%% between the sets: the machine was disturbed, rerun", drift*100)
	}
	if len(failed) > 0 {
		return fmt.Errorf("two sets of runs of the same code disagree beyond the bound on %v", failed)
	}
	return nil
}

// readResults loads the scored runs of a file written with -out,
// grouped by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for every workload and end-to-end metric, the
// parent's median and quartiles, the change's median, their ratio with
// its base, the bound, and a verdict:
//
//	unresolved  the parent's own quartile spread is wider than the bound
//	worse       the change's median is worse by more than the bound
//	better      it is better by more than the parent's quartile spread
//	same        neither
func compareFiles(w io.Writer, bf *benchmarkFile, parentPath, changePath string) error {
	parent, err := readResults(parentPath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-26s %11s %11s %11s %5s %11s %5s %-18s %6s %s\n",
		"workload", "metric", "parent med", "q1", "q3", "n", "change med", "n", "ratio", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, def := range bf.EndToEnd {
			pv, cv := values(parent[wl], def.Name), values(change[wl], def.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			pm, cm := median(pv), median(cv)
			q1, q3 := quartiles(pv)
			spread := ratio(q3-q1, math.Abs(pm))
			verdict := "same"
			switch worse := worseBy(def, pm, cm); {
			case spread > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "worse"
			case -worse > spread:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-13s %-26s %11.5g %11.5g %11.5g %5d %11.5g %5d %-18s %5.0f%% %s\n",
				wl, def.Name, pm, q1, q3, len(pv), cm, len(cv),
				fmt.Sprintf("%.3fx of %.4g", ratio(cm, pm), pm), def.Bound*100, verdict)
		}
	}
	return nil
}
