//go:build !race

package trie

// raceEnabled lets the batch allocation pin skip under the race detector,
// whose instrumentation moves the count (884 against 882).
const raceEnabled = false
