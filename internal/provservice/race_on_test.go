//go:build race

package provservice

// raceEnabled: under the race detector sync.Pool drops a random share of
// what is put back, so tests that count the bytes a warm pool saves skip
// that part.
const raceEnabled = true
