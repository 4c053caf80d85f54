//go:build race

package main

// raceEnabled reports a build with the race detector, whose runtime
// allocates more per query than the program does: allocation counts
// there are not the program's.
const raceEnabled = true
