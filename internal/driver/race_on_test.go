//go:build race

package driver

const raceEnabled = true
