package trainsim

import (
	"math"
	"testing"
)

func TestModelPresets(t *testing.T) {
	for _, fam := range []Family{MaskedAutoencoder, SwinTransformerV2} {
		for _, size := range PaperSizes() {
			m, err := NewModel(fam, size)
			if err != nil {
				t.Fatal(err)
			}
			if m.Params <= 0 || m.FlopsPerSample() <= 0 {
				t.Errorf("%s: bad preset %+v", m.Name, m)
			}
		}
	}
	if _, err := NewModel(MaskedAutoencoder, "9T"); err == nil {
		t.Error("unknown size must fail")
	}
	if _, err := NewModel(Family("GPT"), "100M"); err == nil {
		t.Error("unknown family must fail")
	}
}

func TestMAECheaperThanSwin(t *testing.T) {
	mae := MustModel(MaskedAutoencoder, "600M")
	swin := MustModel(SwinTransformerV2, "600M")
	if mae.FlopsPerSample() >= swin.FlopsPerSample() {
		t.Errorf("MAE (%g) must be cheaper per sample than SwinV2 (%g)",
			mae.FlopsPerSample(), swin.FlopsPerSample())
	}
}

func TestAllreduceModel(t *testing.T) {
	c := FrontierLike(8)
	single := FrontierLike(1)
	if single.AllreduceSeconds(1e9) != 0 {
		t.Error("single GPU needs no allreduce")
	}
	t8 := c.AllreduceSeconds(1e9)
	t128 := FrontierLike(128).AllreduceSeconds(1e9)
	if t8 <= 0 || t128 <= t8 {
		t.Errorf("allreduce time must grow with group size: %v vs %v", t8, t128)
	}
	// Ring must beat naive broadcast at scale.
	if FrontierLike(64).AllreduceSeconds(1e9) >= FrontierLike(64).NaiveAllreduceSeconds(1e9) {
		t.Error("ring allreduce should beat the naive baseline")
	}
}

func TestScalingLawMonotonic(t *testing.T) {
	law, err := LawFor(MaskedAutoencoder)
	if err != nil {
		t.Fatal(err)
	}
	if law.Loss(1e8, 1e9) <= law.Loss(1.4e9, 1e9) {
		t.Error("loss must decrease with model size")
	}
	if law.Loss(1e8, 1e8) <= law.Loss(1e8, 1e10) {
		t.Error("loss must decrease with data")
	}
	if !math.IsInf(law.Loss(0, 1e9), 1) {
		t.Error("degenerate inputs must return +Inf")
	}
}

func TestSwinLossLowerScale(t *testing.T) {
	mae, _ := LawFor(MaskedAutoencoder)
	swin, _ := LawFor(SwinTransformerV2)
	for _, n := range []int64{1e8, 6e8, 14e8} {
		if swin.Loss(n, 8e8) >= mae.Loss(n, 8e8) {
			t.Errorf("SwinV2 loss scale must sit below MAE at N=%d", n)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	spec, err := PaperSpec(MaskedAutoencoder, "200M", 32)
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalLoss != b.FinalLoss || a.TotalEnergy != b.TotalEnergy || a.TotalTime != b.TotalTime {
		t.Error("simulation must be deterministic for a fixed spec")
	}
}

func TestRunBasicInvariants(t *testing.T) {
	spec, _ := PaperSpec(MaskedAutoencoder, "100M", 8)
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("MAE-100M on 8 GPUs must finish inside the walltime")
	}
	if len(res.Epochs) != spec.Epochs {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	if res.SamplesSeen < spec.Dataset.Patches*spec.Epochs {
		t.Errorf("samples seen = %d", res.SamplesSeen)
	}
	for i := 1; i < len(res.Epochs); i++ {
		if res.Epochs[i].SamplesSeen <= res.Epochs[i-1].SamplesSeen {
			t.Error("samples must accumulate across epochs")
		}
	}
	if res.TotalEnergy <= 0 || res.FinalLoss <= 0 {
		t.Errorf("energy %v loss %v", res.TotalEnergy, res.FinalLoss)
	}
	if res.Profile.Utilization <= 0 || res.Profile.Utilization > 1 {
		t.Errorf("utilization = %v", res.Profile.Utilization)
	}
}

func TestLossImprovesAcrossEpochs(t *testing.T) {
	spec, _ := PaperSpec(SwinTransformerV2, "100M", 64)
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last >= first {
		t.Errorf("loss should improve: %v -> %v", first, last)
	}
}

// TestFigure3Cutoffs pins the calibration that reproduces the paper's
// empty cells: SwinV2-1B exceeds the 2 h walltime at 8 and 16 GPUs but
// completes at 32+; every MAE configuration completes.
func TestFigure3Cutoffs(t *testing.T) {
	for _, gpus := range []int{8, 16, 32, 64, 128} {
		spec, _ := PaperSpec(SwinTransformerV2, "1B", gpus)
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		wantTruncated := gpus <= 16
		if res.Truncated != wantTruncated {
			t.Errorf("SwinV2-1B @%d GPUs truncated=%v want %v (walltime %v)",
				gpus, res.Truncated, wantTruncated, res.TotalTime)
		}
	}
	for _, size := range PaperSizes() {
		for _, gpus := range []int{8, 16, 32, 64, 128} {
			spec, _ := PaperSpec(MaskedAutoencoder, size, gpus)
			res, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Errorf("MAE-%s @%d GPUs must not be truncated (took %v)", size, gpus, res.TotalTime)
			}
		}
	}
	// All other SwinV2 sizes complete everywhere.
	for _, size := range []string{"100M", "200M", "600M"} {
		for _, gpus := range []int{8, 16, 32, 64, 128} {
			spec, _ := PaperSpec(SwinTransformerV2, size, gpus)
			res, err := spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Errorf("SwinV2-%s @%d GPUs must not be truncated (took %v)", size, gpus, res.TotalTime)
			}
		}
	}
}

// TestFigure3Shape pins the qualitative trends of the heat grids.
func TestFigure3Shape(t *testing.T) {
	metric := func(f Family, size string, gpus int) (float64, bool) {
		spec, _ := PaperSpec(f, size, gpus)
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.EnergyLossProduct(), res.Truncated
	}
	// Monotone growth with GPU count along every completed row.
	for _, fam := range []Family{MaskedAutoencoder, SwinTransformerV2} {
		for _, size := range PaperSizes() {
			prev := 0.0
			for _, gpus := range []int{8, 16, 32, 64, 128} {
				m, trunc := metric(fam, size, gpus)
				if trunc {
					continue
				}
				if m <= prev {
					t.Errorf("%s-%s: metric not increasing at %d GPUs (%v <= %v)", fam, size, gpus, m, prev)
				}
				prev = m
			}
		}
	}
	// Monotone growth with model size at fixed GPU count.
	for _, gpus := range []int{32, 64, 128} {
		for _, fam := range []Family{MaskedAutoencoder, SwinTransformerV2} {
			prev := 0.0
			for _, size := range PaperSizes() {
				m, trunc := metric(fam, size, gpus)
				if trunc {
					continue
				}
				if m <= prev {
					t.Errorf("%s @%d GPUs: metric not increasing with size %s", fam, gpus, size)
				}
				prev = m
			}
		}
	}
	// SwinV2 wins (lower metric) at scale.
	for _, size := range []string{"200M", "600M"} {
		mMAE, _ := metric(MaskedAutoencoder, size, 128)
		mSwin, _ := metric(SwinTransformerV2, size, 128)
		if mSwin >= mMAE {
			t.Errorf("SwinV2-%s must beat MAE at 128 GPUs: %v vs %v", size, mSwin, mMAE)
		}
	}
}

func TestWalltimeTruncationAccounting(t *testing.T) {
	spec, _ := PaperSpec(SwinTransformerV2, "1B", 8)
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.TotalTime > spec.Walltime {
		t.Errorf("accounted time %v exceeds walltime %v", res.TotalTime, spec.Walltime)
	}
	if res.TotalEnergy <= 0 {
		t.Error("partial run must still consume energy")
	}
}

func TestValidation(t *testing.T) {
	if err := MODISLike().Validate(); err != nil {
		t.Fatalf("the paper's dataset spec: %v", err)
	}
	spec, _ := PaperSpec(MaskedAutoencoder, "100M", 8)
	bad := spec
	bad.Epochs = 0
	if _, err := bad.Run(); err == nil {
		t.Error("zero epochs must fail")
	}
	bad = spec
	bad.Cluster.GPUs = 0
	if _, err := bad.Run(); err == nil {
		t.Error("zero GPUs must fail")
	}
	bad = spec
	bad.GlobalBatch = 0
	if _, err := bad.Run(); err == nil {
		t.Error("zero batch must fail")
	}
	bad = spec
	bad.Dataset.Patches = 0
	if _, err := bad.Run(); err == nil {
		t.Error("empty dataset must fail")
	}
}

// MustModel is NewModel that panics on bad input.
func MustModel(family Family, size string) ModelConfig {
	m, err := NewModel(family, size)
	if err != nil {
		panic(err)
	}
	return m
}
