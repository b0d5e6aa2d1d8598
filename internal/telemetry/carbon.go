package telemetry

import "fmt"

// CarbonModel converts integrated energy into CO2-equivalent emissions,
// supporting the paper's framing of provenance as a tool for
// energy-efficient, environmentally sustainable training.
type CarbonModel struct {
	// GridIntensity is grams of CO2e emitted per kWh drawn.
	GridIntensity float64
	// PUE is the datacenter power usage effectiveness multiplier
	// (total facility power / IT power), >= 1.
	PUE float64
}

// Predefined grid intensities (gCO2e/kWh, public ballpark figures).
var (
	// GridUSSoutheast approximates the TVA region feeding ORNL.
	GridUSSoutheast = CarbonModel{GridIntensity: 380, PUE: 1.1}
	// GridEUAverage approximates the EU-27 average mix.
	GridEUAverage = CarbonModel{GridIntensity: 250, PUE: 1.3}
	// GridHydro approximates a hydro-dominated grid.
	GridHydro = CarbonModel{GridIntensity: 25, PUE: 1.1}
)

// JoulesToKWh converts joules to kilowatt hours.
func JoulesToKWh(j float64) float64 { return j / 3.6e6 }

// GramsCO2e returns the emissions for the given IT energy in joules.
func (c CarbonModel) GramsCO2e(joules float64) float64 {
	return JoulesToKWh(joules) * c.PUE * c.GridIntensity
}

// Describe renders a human-readable emissions summary.
func (c CarbonModel) Describe(joules float64) string {
	g := c.GramsCO2e(joules)
	switch {
	case g >= 1e6:
		return fmt.Sprintf("%.2f tCO2e", g/1e6)
	case g >= 1e3:
		return fmt.Sprintf("%.2f kgCO2e", g/1e3)
	default:
		return fmt.Sprintf("%.1f gCO2e", g)
	}
}
