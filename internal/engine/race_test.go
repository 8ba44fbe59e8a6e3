//go:build race

package engine

// raceEnabled reports a -race build.
const raceEnabled = true
