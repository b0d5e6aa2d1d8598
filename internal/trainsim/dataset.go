package trainsim

import "fmt"

// DatasetSpec describes the training corpus. The paper's MODIS-FM study
// uses ~800,000 patches of 128x128 pixels with 6 atmospheric channels
// extracted from 23 years of MODIS 1km L1B radiance data; here only its
// cardinality and shape are modelled, not its pixels.
type DatasetSpec struct {
	Name     string
	Patches  int
	PatchDim int
	Channels int
	Years    int
}

// MODISLike returns the scaling-study dataset descriptor.
func MODISLike() DatasetSpec {
	return DatasetSpec{Name: "MODIS-1km-L1B", Patches: 800_000, PatchDim: 128, Channels: 6, Years: 23}
}

// Validate checks the spec.
func (d DatasetSpec) Validate() error {
	if d.Patches <= 0 || d.PatchDim <= 0 || d.Channels <= 0 {
		return fmt.Errorf("trainsim: invalid dataset spec %+v", d)
	}
	return nil
}
