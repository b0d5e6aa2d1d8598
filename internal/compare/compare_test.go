package compare

import (
	"math"
	"strings"
	"testing"
)

func sampleRuns() []RunInfo {
	return []RunInfo{
		{ID: "r1", Params: map[string]float64{"lr": 0.1, "batch": 64}, Tags: map[string]string{"arch": "mae"}, Metrics: map[string]float64{"loss": 2.4, "acc": 0.61}},
		{ID: "r2", Params: map[string]float64{"lr": 0.01, "batch": 128}, Tags: map[string]string{"arch": "mae"}, Metrics: map[string]float64{"loss": 1.9, "acc": 0.72}},
		{ID: "r3", Params: map[string]float64{"lr": 0.001, "batch": 256}, Tags: map[string]string{"arch": "swin"}, Metrics: map[string]float64{"loss": 1.7, "acc": 0.77}},
		{ID: "r4", Params: map[string]float64{"lr": 0.0001, "batch": 256}, Tags: map[string]string{"arch": "swin"}, Metrics: map[string]float64{"loss": 1.8, "acc": 0.74}},
	}
}

func TestBest(t *testing.T) {
	best, err := Best(sampleRuns(), "loss", true)
	if err != nil {
		t.Fatal(err)
	}
	if best.ID != "r3" {
		t.Errorf("best = %s", best.ID)
	}
	bestAcc, err := Best(sampleRuns(), "acc", false)
	if err != nil {
		t.Fatal(err)
	}
	if bestAcc.ID != "r3" {
		t.Errorf("best acc = %s", bestAcc.ID)
	}
	if _, err := Best(sampleRuns(), "nope", true); err == nil {
		t.Error("missing metric must fail")
	}
}

func TestBestSkipsNaN(t *testing.T) {
	runs := sampleRuns()
	runs[2].Metrics["loss"] = math.NaN()
	best, err := Best(runs, "loss", true)
	if err != nil {
		t.Fatal(err)
	}
	if best.ID != "r4" {
		t.Errorf("best = %s", best.ID)
	}
}

func TestCorrelationSign(t *testing.T) {
	// Larger batch associates with lower loss in the sample.
	corr, n := Correlation(sampleRuns(), "batch", "loss")
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
	if corr >= 0 {
		t.Errorf("batch/loss corr = %v, want negative", corr)
	}
	// Perfect correlation check.
	runs := []RunInfo{
		{ID: "a", Params: map[string]float64{"x": 1}, Metrics: map[string]float64{"y": 2}},
		{ID: "b", Params: map[string]float64{"x": 2}, Metrics: map[string]float64{"y": 4}},
		{ID: "c", Params: map[string]float64{"x": 3}, Metrics: map[string]float64{"y": 6}},
	}
	corr, _ = Correlation(runs, "x", "y")
	if math.Abs(corr-1) > 1e-12 {
		t.Errorf("perfect corr = %v", corr)
	}
}

func TestCorrelationDegenerate(t *testing.T) {
	runs := []RunInfo{
		{ID: "a", Params: map[string]float64{"x": 5}, Metrics: map[string]float64{"y": 2}},
		{ID: "b", Params: map[string]float64{"x": 5}, Metrics: map[string]float64{"y": 4}},
	}
	corr, n := Correlation(runs, "x", "y")
	if corr != 0 || n != 2 {
		t.Errorf("constant param corr = %v n=%d", corr, n)
	}
	if corr, n := Correlation(runs[:1], "x", "y"); corr != 0 || n != 1 {
		t.Errorf("single point corr = %v n=%d", corr, n)
	}
}

func TestRankParams(t *testing.T) {
	ranked := RankParams(sampleRuns(), "loss")
	if len(ranked) != 2 {
		t.Fatalf("ranked = %v", ranked)
	}
	if math.Abs(ranked[0].Corr) < math.Abs(ranked[1].Corr) {
		t.Error("ranking must be by descending |corr|")
	}
}

func TestTable(t *testing.T) {
	out := Table(sampleRuns(), []string{"loss", "acc"})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// Sorted by loss ascending: r3 first.
	if !strings.HasPrefix(lines[1], "r3") {
		t.Errorf("first row = %q", lines[1])
	}
	if !strings.Contains(lines[0], "loss") || !strings.Contains(lines[0], "acc") {
		t.Errorf("header = %q", lines[0])
	}
	// Missing metric renders as "-".
	runs := sampleRuns()
	delete(runs[0].Metrics, "acc")
	out = Table(runs, []string{"loss", "acc"})
	if !strings.Contains(out, "-") {
		t.Error("missing metric must render as -")
	}
}
