// Package advisor implements the paper's §3.2 online guidance: "an
// online provenance tracking process could give real-time guidelines in
// how to proceed during the training process, understanding when to
// stop ... when a specific threshold of energy, compute, or performance
// is achieved, removing unnecessary iterations."
//
// An Advisor consumes the same observations yProv4ML logs (loss,
// cumulative energy, elapsed time) and recommends whether to continue.
package advisor

import (
	"fmt"
	"math"
	"time"
)

// Action is the advisor's recommendation.
type Action int

// Recommendations.
const (
	Continue Action = iota
	Stop
)

func (a Action) String() string {
	if a == Stop {
		return "stop"
	}
	return "continue"
}

// Advice is one recommendation with its justification.
type Advice struct {
	Action Action
	Reason string
}

// Config sets the stopping thresholds; zero values disable a rule.
type Config struct {
	// EnergyBudgetJ stops once cumulative energy exceeds the budget.
	EnergyBudgetJ float64
	// WalltimeBudget stops once elapsed time exceeds the budget.
	WalltimeBudget time.Duration
	// TargetLoss stops once the loss reaches the target.
	TargetLoss float64
	// PlateauWindow is how many recent observations the plateau rule
	// looks at (needs at least 2; 0 disables the rule).
	PlateauWindow int
	// PlateauMinImprovement is the minimum relative loss improvement
	// over the window below which training is considered plateaued.
	PlateauMinImprovement float64
	// MinMarginalGainPerMJ stops when loss improvement per megajoule
	// falls below this threshold (0 disables).
	MinMarginalGainPerMJ float64
}

// Observation is one training progress sample.
type Observation struct {
	Step    int64
	Loss    float64
	EnergyJ float64 // cumulative
	Elapsed time.Duration
}

// Advisor accumulates observations and evaluates the rules.
type Advisor struct {
	cfg  Config
	hist []Observation
}

// New returns an advisor with the given thresholds.
func New(cfg Config) *Advisor {
	return &Advisor{cfg: cfg}
}

// Observe records a sample and returns the current recommendation.
// Rules are evaluated in severity order: budgets first, then target,
// then diminishing-returns heuristics.
func (a *Advisor) Observe(o Observation) Advice {
	a.hist = append(a.hist, o)

	if a.cfg.EnergyBudgetJ > 0 && o.EnergyJ >= a.cfg.EnergyBudgetJ {
		return Advice{Stop, fmt.Sprintf("energy budget exhausted: %.2f MJ >= %.2f MJ",
			o.EnergyJ/1e6, a.cfg.EnergyBudgetJ/1e6)}
	}
	if a.cfg.WalltimeBudget > 0 && o.Elapsed >= a.cfg.WalltimeBudget {
		return Advice{Stop, fmt.Sprintf("walltime budget exhausted: %v >= %v", o.Elapsed, a.cfg.WalltimeBudget)}
	}
	if a.cfg.TargetLoss > 0 && o.Loss <= a.cfg.TargetLoss {
		return Advice{Stop, fmt.Sprintf("target loss reached: %.5g <= %.5g", o.Loss, a.cfg.TargetLoss)}
	}

	if a.cfg.PlateauWindow >= 2 && len(a.hist) >= a.cfg.PlateauWindow {
		win := a.hist[len(a.hist)-a.cfg.PlateauWindow:]
		first, last := win[0].Loss, win[len(win)-1].Loss
		if first > 0 {
			improvement := (first - last) / first
			if improvement < a.cfg.PlateauMinImprovement {
				return Advice{Stop, fmt.Sprintf("loss plateaued: %.4g%% improvement over last %d observations",
					improvement*100, a.cfg.PlateauWindow)}
			}
		}
	}

	if a.cfg.MinMarginalGainPerMJ > 0 && len(a.hist) >= 2 {
		prev := a.hist[len(a.hist)-2]
		dE := (o.EnergyJ - prev.EnergyJ) / 1e6
		if dE > 0 {
			gain := (prev.Loss - o.Loss) / dE
			if gain < a.cfg.MinMarginalGainPerMJ {
				return Advice{Stop, fmt.Sprintf("diminishing returns: %.5g loss/MJ < %.5g",
					gain, a.cfg.MinMarginalGainPerMJ)}
			}
		}
	}
	return Advice{Continue, "all thresholds satisfied"}
}

// EfficiencyCurve summarizes loss improvement per megajoule between
// consecutive observations — the trade-off view behind Figure 3.
func (a *Advisor) EfficiencyCurve() []float64 {
	if len(a.hist) < 2 {
		return nil
	}
	out := make([]float64, 0, len(a.hist)-1)
	for i := 1; i < len(a.hist); i++ {
		dE := (a.hist[i].EnergyJ - a.hist[i-1].EnergyJ) / 1e6
		if dE <= 0 {
			out = append(out, math.NaN())
			continue
		}
		out = append(out, (a.hist[i-1].Loss-a.hist[i].Loss)/dE)
	}
	return out
}
