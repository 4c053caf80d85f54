//go:build race

package plan

// raceEnabled reports a build with the race detector, where rel.Batch
// poisons the rows Reset drops.
const raceEnabled = true
