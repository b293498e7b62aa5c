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

// Mutant is one seeded bug and whether the oracles caught it. The
// self-check exists to prove the oracles are *load-bearing*: each mutant is
// a real mis-execution of the kind the paper's machinery prevents, built
// here from exported API (no production package carries a switch for it)
// and fed through the same invariant checks the simulator applies to honest
// runs — if any mutant slips through, the oracle suite is vacuous and the
// run must fail.
type Mutant struct {
	Name   string
	Caught bool
	Detail string
}

// String is the mutant's report line.
func (m Mutant) String() string {
	status := "caught"
	if !m.Caught {
		status = "MISSED"
	}
	return fmt.Sprintf("mutation %-22s %s — %s", m.Name, status, m.Detail)
}

// SelfCheck runs the three seeded bugs on a small conflict-heavy fixture
// derived from seed. It depends on nothing else, so one run per seed covers
// every scenario:
//
//   - bad-dependency-graph: a scheduler that ignores the dependency graph
//     (modeled as executing the block's transactions in reverse order) must
//     be caught by the parity oracle — its root cannot match the header;
//   - skipped-wsi-validation: a proposer that skips conflict validation
//     (every tx reads the stale parent snapshot, change sets merged
//     blindly) must be caught by the serializability oracle. It is the bug
//     of either engine with its validation removed: OCC-WSI without write-set
//     validation, MV-STM without read-set validation;
//   - tamper-accepted: a validator that accepts on the state root alone
//     (no per-transaction profile check) accepts a block whose proposer
//     committed an additively tampered profile (execution is unchanged, so
//     the root matches) — the corruption oracle must flag the commitment.
func SelfCheck(seed int64) []Mutant {
	fixture, err := mutationFixture(seed)
	if err != nil {
		return []Mutant{{Name: "fixture", Caught: false, Detail: err.Error()}}
	}
	return []Mutant{
		checkBadDependencyGraph(fixture),
		checkSkippedWSI(fixture),
		checkTamperAccepted(fixture),
	}
}

// mutFixture is one proposed conflict-heavy block plus its parent state.
type mutFixture struct {
	genesis *state.Snapshot
	gHeader *types.Header
	block   *types.Block
	params  chain.Params
}

// mutationFixture proposes one block over a deliberately conflict-heavy
// workload (half the block swaps against two AMM pairs), so any execution
// that breaks the serialization order diverges in state, not just in gas.
func mutationFixture(seed int64) (*mutFixture, error) {
	wcfg := workload.Default() // hotspot pressure: swaps on one pair all conflict
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
	g := workload.New(wcfg)
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
	return &mutFixture{genesis: genesis, gHeader: &c.Genesis().Header, block: res.Block, params: params}, nil
}

// checkBadDependencyGraph executes the block's transactions in reverse
// order — what a scheduler that ignores the dependency graph can do to a
// conflict chain — and asks whether the parity oracle's root comparison
// notices. Either the re-execution faults outright (nonce order broken) or
// it completes with a different root; both count as caught. Only a
// bit-identical root would mean the oracle missed the bug.
func checkBadDependencyGraph(f *mutFixture) Mutant {
	m := Mutant{Name: "bad-dependency-graph"}
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
func checkSkippedWSI(f *mutFixture) Mutant {
	m := Mutant{Name: "skipped-wsi-validation"}
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

// checkTamperAccepted replays a block whose header commits to an
// additively tampered profile, a proposer's lie that passes the body check,
// through a validator that accepts on the state root alone — the seeded
// bug: CheckBody, then a serial execution whose root is compared to the
// header's. Execution is unchanged, so the root matches and the buggy
// validator accepts. The corruption oracle must flag the acceptance; the
// control arm confirms the real validator rejects the same block with the
// expected class.
func checkTamperAccepted(f *mutFixture) Mutant {
	m := Mutant{Name: "tamper-accepted"}
	ti, err := makeTamper(f.block, tamperPhantomWrite)
	if err != nil {
		m.Detail = err.Error()
		return m
	}
	errBuggy := chain.CheckBody(ti.instance)
	if errBuggy == nil {
		var res *chain.ProcessResult
		if res, errBuggy = chain.ExecuteSerial(f.genesis, &ti.instance.Header, ti.instance.Txs, f.params); errBuggy == nil {
			errBuggy = chain.CheckStateRoot(&ti.instance.Header, res.State.Root())
		}
	}
	_, errGood := validator.ValidateParallel(f.genesis, f.gHeader, ti.instance, validator.DefaultConfig(4), f.params)
	switch {
	case errBuggy != nil:
		m.Detail = fmt.Sprintf("seeded bug did not reproduce: root-only acceptance rejected anyway (%v)", errBuggy)
	case !errors.Is(errGood, validator.ErrProfileMismatch):
		m.Detail = fmt.Sprintf("control arm broken: the validator returned %v, want profile mismatch", errGood)
	default:
		// The buggy validator committed a tampered block; the corruption
		// oracle's rule — a tampered instance with a nil-error outcome is a
		// failure — fires on exactly this record.
		m.Caught = true
		m.Detail = "root-only acceptance committed the tampered block; corruption oracle flags the nil-error outcome"
	}
	return m
}
