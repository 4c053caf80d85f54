//go:build !race

package rel

// poisonBatches is off outside the race detector: Reset only empties
// the batch (poison_race.go).
const poisonBatches = false
