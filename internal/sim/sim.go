// Package sim is BlockPilot's deterministic fault-injecting cluster
// simulator. One seeded run drives a proposer and several validator nodes
// over internal/network with injected faults — same-height fork bursts,
// dropped / duplicated / reordered delivery, partitions, pipeline stage
// stalls, crash-restarts replayed from internal/blockdb, and corrupted
// blocks validators must reject — then checks four invariant oracles over
// everything the cluster did:
//
//  1. serializability — every committed block's post-state equals a serial
//     re-execution of its transactions in sealed order;
//  2. parity — the parallel validator's committed root equals the serial
//     root equals the header root (and the proposer's parallel root too);
//  3. pipeline safety — within each validator incarnation's outcome stream
//     a block commits only after its parent, the canonical spine carries
//     every transaction exactly once, and no transaction is lost or
//     double-committed across mempool requeues;
//  4. corruption detection — every delivered tampered block is rejected
//     with the expected verification failure class and never committed.
//
// The whole run is a pure function of (seed, scenario): the workload stream,
// fork/tamper choices, and the network fault pattern all derive from the
// seed, so a failing run reproduces exactly from its repro line
// (`bpbench -exp sim -scenario S -seed N`). A mutation self-check
// (SelfCheck) seeds real bugs — a dependency-ignoring schedule, a skipped
// conflict validation, a validator that accepts on the root alone — and
// proves the oracles catch each one.
package sim

import (
	"fmt"
	"sort"

	"blockpilot/internal/core"
	"blockpilot/internal/node"
)

// Config parameterizes one simulator run. The zero value is not runnable;
// use Preset or fill the fields and call Normalize.
type Config struct {
	Seed     int64
	Scenario string

	// Engine selects the proposer's parallel execution backend for the
	// canonical stream ("occ-wsi" or "mv-stm"); the oracles are engine-blind,
	// so every scenario must hold under both. Part of the repro line.
	Engine string

	// StateBackend selects the world-state backend for every node in the
	// cluster (node.BackendMem or node.BackendDisk). Disk runs the whole
	// cluster — proposer and validators — against one persistent node store
	// under Dir; the oracles are backend-blind, and the run digest must be
	// byte-identical across backends (state persistence cannot change
	// consensus). Part of the repro line.
	StateBackend string

	Heights          int // canonical blocks proposed
	Validators       int // validator node count
	ProposerThreads  int // OCC-WSI workers; 1 keeps the canonical stream deterministic
	ValidatorThreads int // per-validator pipeline lanes
	TxPerBlock       int
	Accounts         int

	// Fork schedule: every ForkEvery-th height also broadcasts ForkWidth
	// sibling blocks (same parent, same txs, distinct coinbase). DeepForks
	// additionally extends the previous burst's first sibling by one child,
	// so validators see blocks proposers never build on (paper §3.4).
	ForkEvery int
	ForkWidth int
	DeepForks bool

	// TamperEvery broadcasts one corrupted copy of a genuine block every
	// k-th height, cycling through the tamper kinds (0 = none).
	TamperEvery int

	// Link fault probabilities applied to every link (see network.LinkFaults).
	Drop, Duplicate, Reorder float64

	// PartitionAt splits {proposer, v0} from the remaining validators at
	// that height; HealAt reconnects them (0 = never).
	PartitionAt, HealAt int

	// CrashAt crash-restarts validator v0 after that height: its chain and
	// pipeline are discarded and rebuilt by replaying its blockdb log.
	CrashAt int

	// StallEvery makes every n-th worker-pool task sleep briefly,
	// perturbing pipeline stage timing (0 = off).
	StallEvery int

	// GasLimit overrides the block gas limit (0 = chain default). Small
	// values force the proposer to spill transactions across blocks,
	// exercising mempool requeue conservation.
	GasLimit uint64

	// Health attaches a deterministic health recorder to validator v0: a
	// fake-clock sampler polled at quiesced points, watched by the stall
	// rule over a private probe (v0 pipeline pending vs outcome progress).
	// The health oracle then requires zero incidents — unless StallProbeAt
	// injects one on purpose.
	Health bool

	// StallProbeAt (requires Health) gates v0's worker pool at that height:
	// every validation task blocks on a channel while the recorder polls
	// through the frozen window, so the stall watchdog must fire exactly
	// once, with a complete incident bundle (0 = no injection).
	StallProbeAt int

	// Dir holds the validators' blockdb logs ("" = fresh temp dir).
	Dir string
}

// Normalize fills unset fields with runnable defaults.
func (c *Config) Normalize() {
	if c.Heights <= 0 {
		c.Heights = 8
	}
	if c.Validators <= 0 {
		c.Validators = 3
	}
	if c.ProposerThreads <= 0 {
		c.ProposerThreads = 1
	}
	if c.ValidatorThreads <= 0 {
		c.ValidatorThreads = 4
	}
	if c.TxPerBlock <= 0 {
		c.TxPerBlock = 24
	}
	if c.Accounts <= 0 {
		c.Accounts = 160
	}
	if c.ForkEvery > 0 && c.ForkWidth <= 0 {
		c.ForkWidth = 2
	}
	if c.StallProbeAt > 0 {
		c.Health = true
		if c.StallProbeAt > c.Heights {
			c.StallProbeAt = c.Heights
		}
	}
	if c.Scenario == "" {
		c.Scenario = "custom"
	}
	if c.Engine == "" {
		c.Engine = core.EngineOCCWSI
	}
	if c.StateBackend == "" {
		c.StateBackend = node.BackendMem
	}
}

// presets is the scenario matrix (docs/TESTING.md documents each row).
var presets = map[string]Config{
	"baseline": {Health: true},
	"forks": {
		ForkEvery: 2, ForkWidth: 2, DeepForks: true,
	},
	"lossy": {
		Drop: 0.25, Duplicate: 0.15, Reorder: 0.20,
		ForkEvery: 3, ForkWidth: 1,
	},
	"partition": {
		PartitionAt: 3, HealAt: 6,
		ForkEvery: 2, ForkWidth: 1,
	},
	"crash": {
		CrashAt:   4,
		ForkEvery: 3, ForkWidth: 2,
	},
	"tamper": {
		TamperEvery: 1,
		ForkEvery:   3, ForkWidth: 1,
	},
	"stall": {
		StallEvery: 3,
		ForkEvery:  2, ForkWidth: 2, DeepForks: true,
		Health: true, StallProbeAt: 4,
	},
	"gaslimit": {
		GasLimit: 600_000, Heights: 6,
	},
	"chaos": {
		ForkEvery: 2, ForkWidth: 2, DeepForks: true,
		TamperEvery: 2,
		Drop:        0.15, Duplicate: 0.10, Reorder: 0.15,
		PartitionAt: 3, HealAt: 5,
		CrashAt:    5,
		StallEvery: 4,
	},
}

// Scenarios lists the preset names in sorted order.
func Scenarios() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Preset returns the named scenario configured with seed.
func Preset(name string, seed int64) (Config, error) {
	cfg, ok := presets[name]
	if !ok {
		return Config{}, fmt.Errorf("sim: unknown scenario %q (have %v)", name, Scenarios())
	}
	cfg.Scenario = name
	cfg.Seed = seed
	cfg.Normalize()
	return cfg, nil
}
