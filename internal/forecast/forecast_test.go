package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/trainsim"
)

// synthRecords samples a known law so Fit can be checked for recovery.
func synthRecords(law trainsim.ScalingLaw, noise float64, seed int64) []RunRecord {
	rng := rand.New(rand.NewSource(seed))
	var out []RunRecord
	i := 0
	for _, params := range []float64{1e8, 2e8, 6e8, 1.4e9} {
		for _, tokens := range []float64{2e8, 8e8, 3e9} {
			loss := law.Loss(int64(params), tokens) * (1 + noise*rng.NormFloat64())
			out = append(out, RunRecord{
				RunID:  fmt.Sprintf("r%d", i),
				Family: "MAE",
				Params: params,
				Tokens: tokens,
				GPUs:   8 << (i % 4),
				Loss:   loss,
			})
			i++
		}
	}
	return out
}

func TestFitRecoversLaw(t *testing.T) {
	law, _ := trainsim.LawFor(trainsim.MaskedAutoencoder)
	recs := synthRecords(law, 0, 1)
	fit, err := Fit(recs)
	if err != nil {
		t.Fatal(err)
	}
	if fit.RMSE > 0.02 {
		t.Errorf("noise-free RMSE = %v", fit.RMSE)
	}
	// Predictions at held-out points must be close.
	for _, params := range []float64{3e8, 1e9} {
		for _, tokens := range []float64{5e8, 2e9} {
			want := law.Loss(int64(params), tokens)
			got := fit.Predict(params, tokens)
			if math.Abs(got-want)/want > 0.08 {
				t.Errorf("predict(%g, %g) = %v, want ~%v", params, tokens, got, want)
			}
		}
	}
}

func TestFitWithNoise(t *testing.T) {
	law, _ := trainsim.LawFor(trainsim.SwinTransformerV2)
	recs := synthRecords(law, 0.02, 7)
	fit, err := Fit(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := law.Loss(14e8, 1e9)
	got := fit.Predict(14e8, 1e9)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("noisy prediction off: %v vs %v", got, want)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty input must fail")
	}
	same := []RunRecord{
		{RunID: "a", Params: 1e8, Tokens: 1e8, Loss: 2},
		{RunID: "b", Params: 1e8, Tokens: 2e8, Loss: 1.9},
		{RunID: "c", Params: 1e8, Tokens: 4e8, Loss: 1.85},
		{RunID: "d", Params: 1e8, Tokens: 8e8, Loss: 1.8},
	}
	if _, err := Fit(same); err == nil {
		t.Error("single model size must fail")
	}
	bad := synthRecords(trainsim.ScalingLaw{E: 1, A: 1, Alpha: 0.5, B: 1, Beta: 0.3}, 0, 1)
	bad[0].Loss = -1
	if _, err := Fit(bad); err == nil {
		t.Error("negative loss must fail")
	}
}

func TestFitFromSimulator(t *testing.T) {
	// End-to-end: records harvested from actual simulator runs should be
	// fittable and predict a held-out configuration reasonably.
	var recs []RunRecord
	for _, size := range trainsim.PaperSizes() {
		for _, gpus := range []int{32, 128} {
			spec, err := trainsim.PaperSpec(trainsim.MaskedAutoencoder, size, gpus)
			if err != nil {
				t.Fatal(err)
			}
			res, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, RunRecord{
				RunID:   fmt.Sprintf("%s@%d", size, gpus),
				Family:  string(trainsim.MaskedAutoencoder),
				Params:  float64(spec.Model.Params),
				Tokens:  float64(res.SamplesSeen) * float64(spec.Model.TokensPerSample),
				GPUs:    gpus,
				Loss:    res.FinalLoss,
				EnergyJ: res.TotalEnergy,
				TimeS:   res.TotalTime.Seconds(),
			})
		}
	}
	fit, err := Fit(recs)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := trainsim.PaperSpec(trainsim.MaskedAutoencoder, "600M", 64)
	res, _ := spec.Run()
	got := fit.Predict(float64(spec.Model.Params), float64(res.SamplesSeen)*256)
	if math.Abs(got-res.FinalLoss)/res.FinalLoss > 0.1 {
		t.Errorf("held-out prediction %v vs actual %v", got, res.FinalLoss)
	}
}

func TestCostModel(t *testing.T) {
	var recs []RunRecord
	for _, gpus := range []int{8, 32} {
		spec, _ := trainsim.PaperSpec(trainsim.MaskedAutoencoder, "200M", gpus)
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, RunRecord{
			RunID: fmt.Sprintf("g%d", gpus), Params: float64(spec.Model.Params),
			Tokens: float64(res.SamplesSeen) * 256, GPUs: gpus,
			Loss: res.FinalLoss, EnergyJ: res.TotalEnergy, TimeS: res.TotalTime.Seconds(),
		})
	}
	cm, err := FitCost(recs)
	if err != nil {
		t.Fatal(err)
	}
	if cm.JoulesPerFlop <= 0 {
		t.Fatal("bad joules/flop")
	}
	e := cm.EstimateEnergy(2e8, recs[0].Tokens)
	if e <= 0 || math.Abs(e-recs[0].EnergyJ)/recs[0].EnergyJ > 0.6 {
		t.Errorf("energy estimate %v vs observed %v", e, recs[0].EnergyJ)
	}
	// Exact GPU count.
	tt, err := cm.EstimateTime(2e8, recs[0].Tokens, 8)
	if err != nil || tt <= 0 {
		t.Fatalf("time estimate: %v %v", tt, err)
	}
	// Unseen GPU count interpolates from the nearest.
	t16, err := cm.EstimateTime(2e8, recs[0].Tokens, 16)
	if err != nil {
		t.Fatal(err)
	}
	if t16 >= tt {
		t.Errorf("16 GPUs (%v) should be faster than 8 (%v)", t16, tt)
	}
	if _, err := FitCost(nil); err == nil {
		t.Error("empty cost fit must fail")
	}
}
