//go:build !race

package world

const raceEnabled = false
