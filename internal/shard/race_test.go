//go:build race

package shard

// raceEnabled reports a -race build, where allocation counts are not
// meaningful (the detector instruments memory and sync.Pool drops items
// at random).
const raceEnabled = true
