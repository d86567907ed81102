//go:build !race

package halo

const raceEnabled = false
