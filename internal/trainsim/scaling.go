package trainsim

import (
	"fmt"
	"math"
)

// ScalingLaw is a Chinchilla-style parametric loss model:
//
//	L(N, D) = E + A/N^Alpha + B/D^Beta
//
// with N trainable parameters and D training tokens. It is the analytic
// stand-in for real training curves (the paper's §3.3 "analytical
// approach" to performance estimation without training).
type ScalingLaw struct {
	E     float64
	A     float64
	Alpha float64
	B     float64
	Beta  float64
}

// Loss evaluates the law.
func (s ScalingLaw) Loss(params int64, tokens float64) float64 {
	if params <= 0 || tokens <= 0 {
		return math.Inf(1)
	}
	return s.E + s.A/math.Pow(float64(params), s.Alpha) + s.B/math.Pow(tokens, s.Beta)
}

// LawFor returns the calibrated loss law for a model family. The MAE
// reconstruction objective sits on a higher loss scale than SwinV2's:
// the two are not directly comparable in absolute terms (as in the
// paper, which plots them on separate heat maps).
func LawFor(family Family) (ScalingLaw, error) {
	switch family {
	case MaskedAutoencoder:
		return ScalingLaw{E: 0.30, A: 1.8e4, Alpha: 0.5, B: 155, Beta: 0.28}, nil
	case SwinTransformerV2:
		return ScalingLaw{E: 0.105, A: 6.3e3, Alpha: 0.5, B: 54, Beta: 0.28}, nil
	}
	return ScalingLaw{}, fmt.Errorf("trainsim: no scaling law for family %q", family)
}
