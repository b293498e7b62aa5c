package main

import (
	"math"

	"blockpilot/internal/workload"
)

// spec is one named workload: the generator mix, the cluster shape and the
// state backend. Every field is benchmark-side; the program under test only
// ever sees the transactions and genesis the generator produces from it.
type spec struct {
	name string
	why  string

	mix func() workload.Config // generator parameters (Seed filled by the driver)

	proposers int     // proposer identities (coinbases)
	forkProb  float64 // consensus fork probability per round
	maxForks  int     // siblings in a forked round

	disk       bool // disk state backend with separate proposer / validator stores
	cacheNodes int  // disk backend: decoded-node LRU capacity

	// roundsPerSecond converts the contract's --seconds into a FIXED round
	// count (fitted on the 2-core reference host at the defining commit), so
	// parent and change execute byte-identical inputs and retention metrics
	// (live_heap_mb) compare like with like. A faster change finishes early;
	// it is not handed more rounds.
	roundsPerSecond float64
}

// Driver constants shared by every workload.
const (
	warmupRounds = 10 // untimed rounds before the clock starts (part of setup_s)
	setupRepeats = 3  // setups per run; setup_s is their median
	keepRoots    = 8  // disk backend: roots older than this many blocks are released
	traceDivisor = 4  // the traced run executes 1/4 of the timed run's rounds
	replayEvery  = 4  // phase B replays every 4th traced round
)

func mainnetMix() workload.Config { return workload.Default() }

func hotspotMix() workload.Config {
	cfg := workload.Default()
	cfg.SwapRatio = 0.70
	cfg.NumPairs = 1
	cfg.NativeRatio = 0.12
	cfg.MixerRatio = 0.06
	return cfg
}

func stateDiskMix() workload.Config {
	cfg := workload.Default()
	cfg.NumAccounts = 50_000
	cfg.TokenHolders = 2_000
	cfg.NativeRatio = 0.60
	cfg.SwapRatio = 0
	cfg.MixerRatio = 0
	cfg.SpinMin, cfg.SpinMax = 0, 0
	cfg.TokenZipfS = 1.0
	cfg.HotRecipientRatio = 0.05
	cfg.TxPerBlock = 400
	return cfg
}

// workloads is the fixed catalogue; later issues cite these names.
var workloads = []spec{
	{
		name: "mainnet",
		why:  "paper headline mix (132 tx/block, largest subgraph ~25%), mem state, 1 proposer: the EVM interpreter does most of the work",
		mix:  mainnetMix, proposers: 1, roundsPerSecond: 15,
	},
	{
		name: "hotspot",
		why:  "70% swaps on one AMM pair: same per-tx EVM cost, but OCC aborts and one giant component, so core/mempool/scheduler set the time",
		mix:  hotspotMix, proposers: 1, roundsPerSecond: 10,
	},
	{
		name: "forks",
		why:  "mainnet mix with two same-height siblings every round: the only workload where pipeline and its shared worker pool overlap blocks",
		mix:  mainnetMix, proposers: 2, forkProb: 1.0, maxForks: 2, roundsPerSecond: 7.6,
	},
	{
		name: "state_disk",
		why:  "50k accounts, transfers only, disk backend with a 16k-node cache and per-block fsync: bypasses the EVM, stresses state/trie/store/crypto",
		mix:  stateDiskMix, proposers: 1, disk: true, cacheNodes: 16_384, roundsPerSecond: 5,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// rounds is the fixed timed-round count for a --seconds budget.
func (s spec) rounds(seconds int) int {
	return int(math.Ceil(float64(seconds) * s.roundsPerSecond))
}
