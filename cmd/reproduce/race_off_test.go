//go:build !race

package main

// raceEnabled reports whether the race detector instruments this build;
// TestFusedMatchesNofuse runs a shorter window when it does.
const raceEnabled = false
