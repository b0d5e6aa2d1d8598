package advisor

import (
	"math"
	"testing"
	"time"

	"repro/internal/trainsim"
)

func TestEnergyBudget(t *testing.T) {
	a := New(Config{EnergyBudgetJ: 1e6})
	adv := a.Observe(Observation{Step: 0, Loss: 2, EnergyJ: 5e5})
	if adv.Action != Continue {
		t.Fatalf("under budget: %+v", adv)
	}
	adv = a.Observe(Observation{Step: 1, Loss: 1.9, EnergyJ: 1.2e6})
	if adv.Action != Stop {
		t.Fatalf("over budget: %+v", adv)
	}
}

func TestWalltimeBudget(t *testing.T) {
	a := New(Config{WalltimeBudget: time.Hour})
	if adv := a.Observe(Observation{Elapsed: 59 * time.Minute, Loss: 1}); adv.Action != Continue {
		t.Fatal(adv)
	}
	if adv := a.Observe(Observation{Elapsed: 61 * time.Minute, Loss: 1}); adv.Action != Stop {
		t.Fatal(adv)
	}
}

func TestTargetLoss(t *testing.T) {
	a := New(Config{TargetLoss: 1.5})
	if adv := a.Observe(Observation{Loss: 1.6}); adv.Action != Stop && adv.Action != Continue {
		t.Fatal(adv)
	}
	if adv := a.Observe(Observation{Loss: 1.49}); adv.Action != Stop {
		t.Fatalf("target reached: %+v", adv)
	}
}

func TestPlateau(t *testing.T) {
	a := New(Config{PlateauWindow: 3, PlateauMinImprovement: 0.01})
	losses := []float64{2.0, 1.5, 1.2, 1.199, 1.1985}
	var last Advice
	for i, l := range losses {
		last = a.Observe(Observation{Step: int64(i), Loss: l})
	}
	if last.Action != Stop {
		t.Fatalf("plateau not detected: %+v", last)
	}
	// Still improving: no stop.
	b := New(Config{PlateauWindow: 3, PlateauMinImprovement: 0.01})
	for i, l := range []float64{2.0, 1.5, 1.2, 1.0, 0.85} {
		last = b.Observe(Observation{Step: int64(i), Loss: l})
	}
	if last.Action != Continue {
		t.Fatalf("false plateau: %+v", last)
	}
}

func TestMarginalGain(t *testing.T) {
	a := New(Config{MinMarginalGainPerMJ: 0.05})
	a.Observe(Observation{Loss: 2.0, EnergyJ: 0})
	// Gain of 0.5 loss over 1 MJ = 0.5/MJ: continue.
	if adv := a.Observe(Observation{Loss: 1.5, EnergyJ: 1e6}); adv.Action != Continue {
		t.Fatal(adv)
	}
	// Gain of 0.01 over 1 MJ: stop.
	if adv := a.Observe(Observation{Loss: 1.49, EnergyJ: 2e6}); adv.Action != Stop {
		t.Fatal(adv)
	}
}

func TestDisabledRulesNeverStop(t *testing.T) {
	a := New(Config{})
	for i := 0; i < 50; i++ {
		adv := a.Observe(Observation{Step: int64(i), Loss: 5, EnergyJ: float64(i) * 1e9, Elapsed: time.Duration(i) * time.Hour})
		if adv.Action != Continue {
			t.Fatalf("disabled advisor stopped: %+v", adv)
		}
	}
	if len(a.hist) != 50 {
		t.Errorf("history = %d", len(a.hist))
	}
}

func TestEfficiencyCurve(t *testing.T) {
	a := New(Config{})
	a.Observe(Observation{Loss: 2.0, EnergyJ: 0})
	a.Observe(Observation{Loss: 1.5, EnergyJ: 1e6})
	a.Observe(Observation{Loss: 1.4, EnergyJ: 2e6})
	a.Observe(Observation{Loss: 1.35, EnergyJ: 2e6}) // no energy spent
	curve := a.EfficiencyCurve()
	if len(curve) != 3 {
		t.Fatalf("curve = %v", curve)
	}
	if math.Abs(curve[0]-0.5) > 1e-9 || math.Abs(curve[1]-0.1) > 1e-9 {
		t.Errorf("curve = %v", curve)
	}
	if !math.IsNaN(curve[2]) {
		t.Errorf("zero-energy segment should be NaN, got %v", curve[2])
	}
	if New(Config{}).EfficiencyCurve() != nil {
		t.Error("empty curve should be nil")
	}
}

// TestAdvisorOnSimulatedRun drives the advisor with real simulator
// epochs: with a tight energy budget it must stop before the run ends.
func TestAdvisorOnSimulatedRun(t *testing.T) {
	spec, err := trainsim.PaperSpec(trainsim.MaskedAutoencoder, "600M", 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	budget := res.TotalEnergy * 0.6 // 60% of what the full run needs
	a := New(Config{EnergyBudgetJ: budget})
	var cum float64
	var elapsed time.Duration
	stopped := false
	for _, ep := range res.Epochs {
		cum += ep.EnergyJ
		elapsed += ep.Time
		adv := a.Observe(Observation{Step: int64(ep.Index), Loss: ep.Loss, EnergyJ: cum, Elapsed: elapsed})
		if adv.Action == Stop {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Error("advisor should stop a run that exceeds 60% of its energy budget")
	}
}
