//go:build race

package prov

// raceEnabled: the race detector drops a quarter of what goes back into
// a sync.Pool and turns off optimisations allocation bounds rely on, so
// tests that count allocations skip that part.
const raceEnabled = true
