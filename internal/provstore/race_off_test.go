//go:build !race

package provstore

const raceEnabled = false
