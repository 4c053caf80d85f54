//go:build race

package rel

// poisonBatches makes Batch.Reset overwrite the rows it drops. It is on
// under the race detector, so every suite run with -race checks the
// batch validity rule (batch.go).
const poisonBatches = true
