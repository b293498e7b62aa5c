//go:build race

package state_test

// raceEnabled lets the disk commit's allocation budget skip under the race
// detector, whose instrumentation moves the count.
const raceEnabled = true
