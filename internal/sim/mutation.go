package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// MutationCheck is one seeded bug and whether the oracles caught it. The
// self-check exists to prove the oracles are *load-bearing*: each mutation
// is a real mis-execution of the kind the paper's machinery prevents, fed
// through the same invariant checks the simulator applies to honest runs —
// if any mutation slips through, the oracle suite is vacuous and the run
// must fail.
type MutationCheck struct {
	Name   string
	Caught bool
	Detail string
}

// SelfCheck runs the three seeded bugs on a small conflict-heavy fixture
// derived from cfg.Seed:
//
//   - bad-dependency-graph: a scheduler that ignores the dependency graph
//     (modeled as executing the block's transactions in reverse order) must
//     be caught by the parity oracle — its root cannot match the header;
//   - skipped-wsi-validation: an OCC proposer that skips write-set
//     validation (every tx reads the stale parent snapshot, change sets
//     merged blindly) must be caught by the serializability oracle;
//   - tamper-accepted: a validator with the profile check disabled accepts
//     a block whose proposer committed an additively tampered profile
//     (execution is unchanged, so the root matches) — the corruption oracle
//     must flag the commitment;
//   - mv-stale-reads: an MV-STM proposer whose multi-version resolution and
//     read-set validation are disabled (ProposerConfig.MVFaultStaleReads)
//     commits conflicting transactions that all read the parent snapshot —
//     the serializability oracle must see a root no serial order produces.
func SelfCheck(cfg Config) []MutationCheck {
	cfg.Normalize()
	fixture, err := mutationFixture(cfg.Seed)
	if err != nil {
		return []MutationCheck{{Name: "fixture", Caught: false, Detail: err.Error()}}
	}
	return []MutationCheck{
		checkBadDependencyGraph(fixture),
		checkSkippedWSI(fixture),
		checkTamperAccepted(fixture),
		checkMVStaleReads(fixture),
	}
}

// mutFixture is one proposed conflict-heavy block plus its parent state.
type mutFixture struct {
	seed    int64
	genesis *state.Snapshot
	gHeader *types.Header
	block   *types.Block
	params  chain.Params
}

// mutationFixture proposes one block over a deliberately conflict-heavy
// workload (half the block swaps against two AMM pairs), so any execution
// that breaks the serialization order diverges in state, not just in gas.
func mutationFixture(seed int64) (*mutFixture, error) {
	g := mutationWorkload(seed) // hotspot pressure: swaps on one pair all conflict
	genesis := g.GenesisState()
	params := chain.DefaultParams()
	c := chain.NewChain(genesis, params)

	pool := mempool.New()
	pool.AddAll(g.NextBlockTxs())
	res, err := core.Propose(genesis, &c.Genesis().Header, pool, core.ProposerConfig{
		Threads: 1, Coinbase: proposerCoinbase, Time: 1,
	}, params)
	if err != nil {
		return nil, fmt.Errorf("sim: mutation fixture propose: %w", err)
	}
	return &mutFixture{seed: seed, genesis: genesis, gHeader: &c.Genesis().Header, block: res.Block, params: params}, nil
}

// mutationWorkload rebuilds the fixture's conflict-heavy generator (same
// seed, same mix) for checks that need to propose their own block.
func mutationWorkload(seed int64) *workload.Generator {
	wcfg := workload.Default()
	wcfg.NumAccounts = 60
	wcfg.TxPerBlock = 24
	wcfg.NumTokens = 3
	wcfg.NumPairs = 2
	wcfg.NumMixers = 2
	wcfg.NativeRatio = 0.15
	wcfg.SwapRatio = 0.55
	wcfg.MixerRatio = 0.05
	wcfg.SpinMin, wcfg.SpinMax = 20, 80
	wcfg.Source = rand.NewSource(seed)
	return workload.New(wcfg)
}

// checkBadDependencyGraph executes the block's transactions in reverse
// order — what a scheduler that ignores the dependency graph can do to a
// conflict chain — and asks whether the parity oracle's root comparison
// notices. Either the re-execution faults outright (nonce order broken) or
// it completes with a different root; both count as caught. Only a
// bit-identical root would mean the oracle missed the bug.
func checkBadDependencyGraph(f *mutFixture) MutationCheck {
	m := MutationCheck{Name: "bad-dependency-graph"}
	rev := make([]*types.Transaction, len(f.block.Txs))
	for i, tx := range f.block.Txs {
		rev[len(rev)-1-i] = tx
	}
	header := f.block.Header // copy; same gas limit and block context
	res, err := chain.ExecuteSerial(f.genesis, &header, rev, f.params)
	switch {
	case err != nil:
		m.Caught = true
		m.Detail = fmt.Sprintf("reordered execution faults: %v", err)
	case res.State.Root() != f.block.Header.StateRoot:
		m.Caught = true
		m.Detail = fmt.Sprintf("reordered root %s != header %s", res.State.Root(), f.block.Header.StateRoot)
	default:
		m.Detail = "reordered execution produced the committed root — oracle blind to scheduling bugs"
	}
	return m
}

// checkSkippedWSI models an OCC proposer whose write-set validation is
// disabled: every transaction executes against the *parent* snapshot
// (stale reads are never detected, conflicting writes never re-executed)
// and the change sets are merged blindly. The serializability oracle must
// see a different root than the serial execution.
func checkSkippedWSI(f *mutFixture) MutationCheck {
	m := MutationCheck{Name: "skipped-wsi-validation"}
	bc := chain.BlockContextFor(&f.block.Header, f.params.ChainID)
	var parts []*state.ChangeSet
	applied := 0
	for i, tx := range f.block.Txs {
		// The buggy proposer never re-executes: stale snapshot for everyone.
		o := state.NewOverlay(state.NewMemory(f.genesis), types.Version(i))
		if _, _, err := chain.ApplyTransaction(o, tx, bc); err != nil {
			continue // a second same-sender tx aborts on the stale nonce — skip, like a dropped tx
		}
		parts = append(parts, o.ChangeSet())
		applied++
	}
	if applied < 2 {
		m.Detail = "fixture produced too few applicable txs"
		return m
	}
	_, mergedRoot := chain.CommitAndRoot(f.genesis, state.Fold(parts...), f.params, 1)
	if mergedRoot != f.block.Header.StateRoot {
		m.Caught = true
		m.Detail = fmt.Sprintf("stale-read merged root %s != serializable root %s (%d txs merged)", mergedRoot, f.block.Header.StateRoot, applied)
	} else {
		m.Detail = "skipping WSI validation produced the serializable root — oracle blind to lost updates"
	}
	return m
}

// checkTamperAccepted disables the validator's per-transaction profile
// check (the seeded bug) and replays a block whose header commits to an
// additively tampered profile, a proposer's lie that passes the body check:
// execution is unchanged, so the root matches and the buggy validator
// accepts. The corruption oracle must flag the acceptance; the control arm
// confirms the unbroken validator rejects the same block with the expected
// class.
func checkTamperAccepted(f *mutFixture) MutationCheck {
	m := MutationCheck{Name: "tamper-accepted"}
	ti, err := makeTamper(f.block, tamperPhantomWrite)
	if err != nil {
		m.Detail = err.Error()
		return m
	}
	buggy := validator.DefaultConfig(4)
	buggy.SkipProfileCheck = true
	_, errBuggy := validator.ValidateParallel(f.genesis, f.gHeader, ti.instance, buggy, f.params)
	_, errGood := validator.ValidateParallel(f.genesis, f.gHeader, ti.instance, validator.DefaultConfig(4), f.params)
	switch {
	case errBuggy != nil:
		m.Detail = fmt.Sprintf("seeded bug did not reproduce: buggy validator rejected anyway (%v)", errBuggy)
	case !errors.Is(errGood, validator.ErrProfileMismatch):
		m.Detail = fmt.Sprintf("control arm broken: unbroken validator returned %v, want profile mismatch", errGood)
	default:
		// Buggy validator committed a tampered block; the corruption
		// oracle's rule — a tampered instance with a nil-error outcome is a
		// failure — fires on exactly this record.
		m.Caught = true
		m.Detail = "buggy validator committed the tampered block; corruption oracle flags the nil-error outcome"
	}
	return m
}

// checkMVStaleReads breaks the MV-STM engine on purpose: with
// ProposerConfig.MVFaultStaleReads every read resolves from the parent
// snapshot and read-set validation passes vacuously — Block-STM with its
// conflict detection ripped out. On the conflict-heavy fixture workload the
// committed root must then differ from a serial execution of the sealed
// transactions, which is exactly what the serializability oracle compares.
func checkMVStaleReads(f *mutFixture) MutationCheck {
	m := MutationCheck{Name: "mv-stale-reads"}
	g := mutationWorkload(f.seed)
	genesis := g.GenesisState()
	pool := mempool.New()
	pool.AddAll(g.NextBlockTxs())
	res, err := core.Propose(genesis, f.gHeader, pool, core.ProposerConfig{
		Engine:            core.EngineMVSTM,
		MVFaultStaleReads: true,
		Threads:           4, Coinbase: proposerCoinbase, Time: 1,
	}, f.params)
	if err != nil {
		m.Detail = fmt.Sprintf("faulty propose failed outright: %v", err)
		return m
	}
	if res.Committed < 2 {
		m.Detail = "faulty proposer committed too few txs to conflict"
		return m
	}
	serial, err := chain.ExecuteSerial(genesis, &res.Block.Header, res.Block.Txs, f.params)
	switch {
	case err != nil:
		m.Caught = true
		m.Detail = fmt.Sprintf("serial replay of the stale-read block faults: %v", err)
	case serial.State.Root() != res.Block.Header.StateRoot:
		m.Caught = true
		m.Detail = fmt.Sprintf("stale-read root %s != serial root %s (%d txs committed)",
			res.Block.Header.StateRoot, serial.State.Root(), res.Committed)
	default:
		m.Detail = "disabling MV validation still produced the serializable root — oracle blind to stale reads"
	}
	return m
}
