//go:build !race

package evm

// raceEnabled lets the differential sweep run fewer programs under the race
// detector, which slows the interpreter about tenfold, and the allocation
// test skip: the detector's sync.Pool drops stacks at random.
const raceEnabled = false
