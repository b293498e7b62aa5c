//go:build !race

package core

// raceEnabled lets the allocation budget skip under the race detector, whose
// sync.Pool drops pooled buffers at random.
const raceEnabled = false
