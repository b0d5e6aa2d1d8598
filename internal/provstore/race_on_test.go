//go:build race

package provstore

// raceEnabled: the race detector's instrumentation turns off compiler
// optimisations that allocation ceilings rely on (slices.Grow allocates
// its argument twice), so tests that count bytes skip that part.
const raceEnabled = true
