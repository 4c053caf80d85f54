//go:build race

package main

// raceEnabled reports a build with the race detector, whose sync.Pool
// drops a random share of what is put back: allocation counts there
// are not the program's.
const raceEnabled = true
