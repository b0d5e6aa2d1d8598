package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestJoulesToKWh(t *testing.T) {
	if got := JoulesToKWh(3.6e6); got != 1 {
		t.Errorf("3.6 MJ = %v kWh, want 1", got)
	}
}

func TestGramsCO2e(t *testing.T) {
	m := CarbonModel{GridIntensity: 100, PUE: 1.5}
	// 2 kWh of IT energy -> 3 kWh facility -> 300 g.
	if got := m.GramsCO2e(2 * 3.6e6); math.Abs(got-300) > 1e-9 {
		t.Errorf("got %v g, want 300", got)
	}
}

func TestCarbonPresetsOrdering(t *testing.T) {
	j := 1e9 // 1 GJ
	hydro := GridHydro.GramsCO2e(j)
	eu := GridEUAverage.GramsCO2e(j)
	us := GridUSSoutheast.GramsCO2e(j)
	if !(hydro < eu && eu < us) {
		t.Errorf("ordering broken: hydro=%v eu=%v us=%v", hydro, eu, us)
	}
}

func TestCarbonDescribeUnits(t *testing.T) {
	m := CarbonModel{GridIntensity: 400, PUE: 1}
	cases := []struct {
		joules float64
		want   string
	}{
		{3.6e6, "gCO2e"},  // 1 kWh -> 400 g
		{3.6e9, "kgCO2e"}, // 1 MWh -> 400 kg
		{3.6e13, "tCO2e"}, // 10 GWh -> 4000 t
	}
	for _, c := range cases {
		if got := m.Describe(c.joules); !strings.Contains(got, c.want) {
			t.Errorf("Describe(%g) = %q, want unit %q", c.joules, got, c.want)
		}
	}
}
