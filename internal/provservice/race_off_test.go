//go:build !race

package provservice

const raceEnabled = false
