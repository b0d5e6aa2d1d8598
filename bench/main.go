// Command bench is the repository's benchmark: four steady-state
// workloads against a real yprov-server child process, seven
// end-to-end metrics, and a traced run that attributes time to the
// layers below. See README.md beside this file.
//
//	bash bench/run.sh --workload mixed_rw --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -selfcheck            # do two sets of runs agree?
//	bash bench/run.sh -compare a.jsonl b.jsonl
//
// The last line of standard output of a run is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}},
// holding the end-to-end metrics with --trace 0 and the per-layer
// metrics with --trace 1, as BENCHMARK.json lists them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

// Fixed shape of a run; only the window length is a flag.
const (
	corpusDocs = 1024
	warmup     = 1500 * time.Millisecond
	calm       = 300 * time.Millisecond
	setups     = 3
	restarts   = 7
	probeOps   = 2000
)

// benchmarkFile mirrors BENCHMARK.json, the single place metric names,
// units and regression bounds are fixed.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// boolArg is a boolean flag that takes its value as the next argument
// ("--trace 1"), which flag.Bool does not.
type boolArg bool

func (b *boolArg) String() string { return strconv.FormatBool(bool(*b)) }
func (b *boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolArg(v)
	return err
}

// options are the command-line flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     boolArg
	root      string
	out       string
	selfcheck bool
	compare   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: train_run, ingest_batch, lineage_hot or mixed_rw")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.Var(&o.trace, "trace", "1: traced run printing the per-layer metrics; 0: scored run printing the end-to-end metrics")
	flag.StringVar(&o.root, "root", "", "the checkout: the directory holding BENCHMARK.json and .bench_build/ (bench/run.sh passes it)")
	flag.StringVar(&o.out, "out", "", "append the run's full result to this file, one JSON object per line")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets of runs of every workload and check they agree within the bounds")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files written with -out: bench -compare parent.jsonl change.jsonl")
	flag.Parse()

	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o options) run() error {
	if o.root == "" {
		return fmt.Errorf("-root is required: start the benchmark with bash bench/run.sh")
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, bf, flag.Arg(0), flag.Arg(1))
	}
	seconds := o.seconds
	if seconds <= 0 {
		seconds = float64(bf.RunSeconds)
	}
	// bench/run.sh built the server from this checkout before starting us.
	serverBin := filepath.Join(root, ".bench_build", "bin", "yprov-server")
	configure := func(workload string, seed int64, trace bool) runConfig {
		return runConfig{
			workload: workload, seed: seed, trace: trace,
			window:     time.Duration(seconds * float64(time.Second)),
			corpusDocs: corpusDocs, warmup: warmup, calm: calm, setups: setups, restarts: restarts, probeOps: probeOps,
			workDir:   filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d", workload, os.Getpid())),
			traceFile: filepath.Join(root, "bench", "out", workload+".trace.json"),
			newTarget: func(workDir string) (target, error) {
				return newChildServer(serverBin, filepath.Join(workDir, "server.log"))
			},
			log: os.Stderr,
		}
	}
	if o.selfcheck {
		return selfCheck(os.Stdout, bf, o.seed, func(workload string, seed int64) (*result, error) {
			return run(configure(workload, seed, false))
		})
	}
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown workload %q: want one of %v", o.workload, workloadNames)
	}
	res, err := run(configure(o.workload, o.seed, bool(o.trace)))
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := appendResult(o.out, res); err != nil {
			return err
		}
	}
	if err := report(os.Stdout, bf, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed: %s", o.workload, res.Failed, res.Attempted, res.FirstError)
	}
	return nil
}

// report prints every measured metric by name with its unit, then, as
// the last line, the JSON object the benchmark contract asks for.
func report(w io.Writer, bf *benchmarkFile, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d window %gs trace %v: %d latency samples, %d attempted, %d failed\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Samples, res.Attempted, res.Failed)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	defs := bf.EndToEnd
	if res.Trace {
		defs = bf.PerLayer
	}
	final := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metricSet{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %s, which this run did not measure", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("%s is measured in %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
		}
		final.Metrics[d.Name] = m
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
