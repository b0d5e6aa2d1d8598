//go:build !race

package prov

const raceEnabled = false
