package validator

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/scheduler"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

var coinbase = types.HexToAddress("0xc01bbace")

type fixture struct {
	parent       *state.Snapshot
	parentHeader *types.Header
	block        *types.Block
}

var fixtures = map[int]*fixture{}
var fixtureMu sync.Mutex

// makeBlock proposes a block from a fresh workload (the honest-proposer
// path). Fixtures are cached per size: genesis construction dominates test
// time otherwise.
func makeBlock(t *testing.T, txCount int) (*state.Snapshot, *types.Header, *types.Block) {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[txCount]; ok {
		return f.parent, f.parentHeader, f.block
	}
	cfg := workload.Default()
	cfg.NumAccounts = 600
	cfg.TxPerBlock = txCount
	g := workload.New(cfg)
	parent := g.GenesisState()
	params := chain.DefaultParams()
	pool := mempool.New()
	pool.AddAll(g.NextBlockTxs())
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	res, err := core.Propose(parent, parentHeader, pool, core.ProposerConfig{
		Threads: 4, Coinbase: coinbase, Time: 7,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != txCount {
		t.Fatalf("proposer packed %d of %d", res.Committed, txCount)
	}
	fixtures[txCount] = &fixture{parent: parent, parentHeader: parentHeader, block: res.Block}
	return parent, parentHeader, res.Block
}

// TestValidateHonestBlockAcrossThreads also pins that the graph is a function
// of the profile alone: Result.Stats is identical at every thread count, and
// a bare Config{Threads: n} is the paper's configuration, not a variant of it.
func TestValidateHonestBlockAcrossThreads(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 132)
	params := chain.DefaultParams()
	var stats *scheduler.Stats
	for _, threads := range []int{1, 2, 4, 8, 16} {
		for name, cfg := range map[string]Config{"default": DefaultConfig(threads), "bare": {Threads: threads}} {
			res, err := ValidateParallel(parent, parentHeader, block, cfg, params)
			if err != nil {
				t.Fatalf("threads=%d %s: %v", threads, name, err)
			}
			if res.State.Root() != block.Header.StateRoot {
				t.Fatalf("threads=%d %s: root mismatch", threads, name)
			}
			if len(res.Receipts) != len(block.Txs) {
				t.Fatalf("threads=%d %s: receipts", threads, name)
			}
			if st := res.Stats(); stats == nil {
				stats = &st
			} else if st != *stats {
				t.Fatalf("threads=%d %s: stats %+v, want %+v", threads, name, st, *stats)
			}
		}
	}
}

func TestValidateMatchesSerialBaseline(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 100)
	params := chain.DefaultParams()

	serial, err := chain.VerifyBlockSerial(parent, parentHeader, block, params)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ValidateParallel(parent, parentHeader, block, DefaultConfig(8), params)
	if err != nil {
		t.Fatal(err)
	}
	if serial.State.Root() != par.State.Root() {
		t.Fatal("parallel validator disagrees with serial baseline")
	}
	for i := range serial.Receipts {
		if serial.Receipts[i].GasUsed != par.Receipts[i].GasUsed ||
			serial.Receipts[i].Status != par.Receipts[i].Status ||
			serial.Receipts[i].CumulativeGasUsed != par.Receipts[i].CumulativeGasUsed {
			t.Fatalf("receipt %d differs", i)
		}
	}
}

// reseal makes b's header commit to b's profile: a proposer's lie, which
// passes the body check and is left to the applier to catch.
func reseal(b *types.Block) {
	b.Header.ProfileRoot = types.ComputeProfileRoot(b.Profile)
}

func TestRejectTamperedStateRoot(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	bad := *block
	bad.Header.StateRoot[5] ^= 0xff
	if _, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), params); err == nil {
		t.Fatal("tampered state root accepted")
	}
}

func TestRejectTamperedProfileGas(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	bad := *block
	profile := &types.BlockProfile{Txs: append([]*types.TxProfile(nil), block.Profile.Txs...)}
	tampered := *profile.Txs[3]
	tampered.GasUsed += 1000
	profile.Txs[3] = &tampered
	bad.Profile = profile
	reseal(&bad)
	_, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), params)
	if !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("err = %v, want profile mismatch", err)
	}
}

func TestRejectTamperedProfileKeys(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	bad := *block
	profile := &types.BlockProfile{Txs: append([]*types.TxProfile(nil), block.Profile.Txs...)}
	tampered := *profile.Txs[0]
	tampered.Writes = append([]types.StateKey{}, tampered.Writes...)
	tampered.Writes = append(tampered.Writes, types.AccountKey(types.HexToAddress("0xfa4e")))
	profile.Txs[0] = &tampered
	bad.Profile = profile
	reseal(&bad)
	_, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), params)
	if !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("err = %v, want profile mismatch", err)
	}
}

func TestRejectMissingProfile(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 10)
	bad := *block
	bad.Profile = nil
	reseal(&bad)
	if _, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), chain.DefaultParams()); !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectTamperedTxList(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	bad := *block
	bad.Txs = append([]*types.Transaction(nil), block.Txs...)
	bad.Txs[0], bad.Txs[1] = bad.Txs[1], bad.Txs[0]
	if _, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), params); err == nil {
		t.Fatal("reordered tx list accepted")
	}
}

func TestRejectWrongParent(t *testing.T) {
	parent, _, block := makeBlock(t, 10)
	wrongParent := &types.Header{Number: 0, GasLimit: 1, Extra: []byte("other")}
	if _, err := ValidateParallel(parent, wrongParent, block, DefaultConfig(2), chain.DefaultParams()); err == nil {
		t.Fatal("wrong parent accepted")
	}
}

func TestRejectTamperedGasUsed(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 20)
	params := chain.DefaultParams()
	bad := *block
	bad.Header.GasUsed += 5
	// GasUsed feeds the header hash, so the profile/roots checks still run;
	// the gas check must fire. (Parent hash unaffected: same parent.)
	if _, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), params); err == nil {
		t.Fatal("tampered gas used accepted")
	}
}

// TestRejectOverGasLimit: a block whose transactions use one gas more than
// its header's GasLimit, the chain's, is rejected by the serial and the
// parallel validator alike, at the shared post-execution check.
func TestRejectOverGasLimit(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	params.GasLimit = block.Header.GasUsed - 1
	bad := *block
	bad.Header.GasLimit = params.GasLimit
	if _, err := chain.VerifyBlockSerial(parent, parentHeader, &bad, params); !errors.Is(err, chain.ErrGasLimitReached) {
		t.Fatalf("serial: err = %v, want gas limit reached", err)
	}
	_, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), params)
	if !errors.Is(err, ErrBadBlock) || !errors.Is(err, chain.ErrGasLimitReached) {
		t.Fatalf("parallel: err = %v, want a bad block over its gas limit", err)
	}
}

// TestRejectForeignGasLimit: a block that is valid in every other respect,
// but whose header GasLimit is not the chain's Params.GasLimit, is rejected
// by the serial and the parallel validator alike, at the shared
// pre-execution check (chain.CheckLink).
func TestRejectForeignGasLimit(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	params.GasLimit = 2 * block.Header.GasLimit
	if _, err := chain.VerifyBlockSerial(parent, parentHeader, block, params); err == nil || !strings.Contains(err.Error(), "gas limit") {
		t.Fatalf("serial: err = %v, want the header's gas limit refused", err)
	}
	_, err := ValidateParallel(parent, parentHeader, block, DefaultConfig(4), params)
	if !errors.Is(err, ErrBadBlock) || !strings.Contains(err.Error(), "gas limit") {
		t.Fatalf("parallel: err = %v, want a bad block for its header's gas limit", err)
	}
}

// TestVerdictFirstFailure: a block with two faults in different components —
// a profile gas mismatch at tx k, a too-high nonce at a later tx j — is
// rejected for k at every thread count, however the lanes interleave. j is
// the first transaction after k outside k's component, so it reads nothing
// k writes: at two threads and more a lane claims j while another runs k,
// and j's failure, found at its first read, can land before k's, found only
// once k has run.
func TestVerdictFirstFailure(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	const k = 0
	comp := make(map[int]int)
	for ci, c := range scheduler.BuildComponents(block.Profile, true) {
		for _, i := range c.TxIndices {
			comp[i] = ci
		}
	}
	j := k + 1
	for comp[j] == comp[k] {
		j++
	}
	bad := *block
	bad.Profile = &types.BlockProfile{Txs: append([]*types.TxProfile(nil), block.Profile.Txs...)}
	pk := *bad.Profile.Txs[k]
	pk.GasUsed++
	bad.Profile.Txs[k] = &pk
	bad.Txs = append([]*types.Transaction(nil), block.Txs...)
	tj := *bad.Txs[j]
	tj.Nonce++
	bad.Txs[j] = &tj
	bad.Header.TxRoot = types.ComputeTxRoot(bad.Txs)
	reseal(&bad)
	want := fmt.Sprintf("tx %d used", k)
	for threads := 1; threads <= 4; threads++ {
		_, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(threads), params)
		if !errors.Is(err, ErrProfileMismatch) || !strings.Contains(err.Error(), want) {
			t.Fatalf("threads=%d: err = %v, want the profile mismatch at tx %d (tx %d has a too-high nonce)", threads, err, k, j)
		}
	}
}

func TestRejectTamperedLogsBloom(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	bad := *block
	bad.Header.LogsBloom[17] ^= 0xff
	if _, err := ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), params); err == nil {
		t.Fatal("tampered logs bloom accepted")
	}
}

func TestHonestBloomContainsTokenEvents(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 132)
	res, err := ValidateParallel(parent, parentHeader, block, DefaultConfig(4), chain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Some transaction in a 132-tx default block is a token transfer, whose
	// contract logged a Transfer event: its address must be in the bloom.
	found := false
	for _, r := range res.Receipts {
		for _, l := range r.Logs {
			if !block.Header.LogsBloom.Contains(l.Address.Bytes()) {
				t.Fatalf("bloom missing logger %s", l.Address)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no logs in a default workload block — token events missing")
	}
}

// TestProfileBitFlipFuzz flips random bits in the serialized block profile.
// Each mutation must either fail to decode, or — if it decodes — the
// validator may accept it ONLY when the mutation left every transaction's
// access keys and gas semantically unchanged (e.g. it only touched the
// read versions, which are proposer-schedule specific and not verified).
func TestProfileBitFlipFuzz(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	enc := block.Profile.Encode()
	r := rand.New(rand.NewSource(6))

	for trial := 0; trial < 60; trial++ {
		mutated := append([]byte(nil), enc...)
		bit := r.Intn(len(mutated) * 8)
		mutated[bit/8] ^= 1 << (bit % 8)

		profile, err := types.DecodeBlockProfile(mutated)
		if err != nil {
			continue // rejected at decode: fine
		}
		if len(profile.Txs) != len(block.Profile.Txs) {
			continue // structurally different; validation will reject on length
		}
		semanticallySame := true
		for i := range profile.Txs {
			if !profile.Txs[i].SameAccessKeys(block.Profile.Txs[i]) ||
				profile.Txs[i].GasUsed != block.Profile.Txs[i].GasUsed {
				semanticallySame = false
				break
			}
		}
		bad := *block
		bad.Profile = profile
		reseal(&bad)
		_, err = ValidateParallel(parent, parentHeader, &bad, DefaultConfig(4), params)
		if err == nil && !semanticallySame {
			t.Fatalf("trial %d: semantically tampered profile accepted (bit %d)", trial, bit)
		}
		if err != nil && semanticallySame {
			t.Fatalf("trial %d: benign mutation rejected: %v", trial, err)
		}
	}
}

func TestStatsReported(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 132)
	res, err := ValidateParallel(parent, parentHeader, block, DefaultConfig(8), chain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().TxCount != 132 || res.Stats().ComponentCount == 0 {
		t.Fatalf("stats = %+v", res.Stats())
	}
	if res.Stats().LargestRatio <= 0 || res.Stats().LargestRatio > 1 {
		t.Fatalf("largest ratio = %f", res.Stats().LargestRatio)
	}
	t.Logf("block conflict structure: %d components, largest %.1f%%, parallelism bound %.2fx",
		res.Stats().ComponentCount, res.Stats().LargestRatio*100, res.Stats().ParallelismUpper)
}

// TestExecuteOnUncommittedParent: a child C executed on its parent P's state
// before P is committed — a state.Memory holding P's change set over the
// grandparent's snapshot — and then committed on P's snapshot is accepted
// with its header's root and the receipts of a plain validation, at every
// thread count. That is the premise of releasing a child at its parent's
// verify end.
func TestExecuteOnUncommittedParent(t *testing.T) {
	cfg := workload.Default()
	cfg.NumAccounts = 600
	grand := workload.New(cfg).GenesisState()
	params := chain.DefaultParams()
	grandHeader := &types.Header{Number: 0, StateRoot: grand.Root(), GasLimit: params.GasLimit}
	propose := func(parent *state.Snapshot, parentHeader *types.Header, txs []*types.Transaction) *types.Block {
		pool := mempool.New()
		pool.AddAll(txs)
		res, err := core.Propose(parent, parentHeader, pool, core.ProposerConfig{Threads: 2, Coinbase: coinbase, Time: parentHeader.Number + 1}, params)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != len(txs) {
			t.Fatalf("proposer packed %d of %d", res.Committed, len(txs))
		}
		return res.Block
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg.Seed = seed
		g := workload.New(cfg)
		p := propose(grand, grandHeader, g.NextBlockTxs())
		pres, err := chain.VerifyBlockSerial(grand, grandHeader, p, params)
		if err != nil {
			t.Fatal(err)
		}
		c := propose(pres.State, &p.Header, g.NextBlockTxs())
		plain, err := ValidateParallel(pres.State, &p.Header, c, DefaultConfig(2), params)
		if err != nil {
			t.Fatal(err)
		}
		base := state.NewMemory(grand)
		base.ApplyChangeSet(pres.Changes)
		for threads := 1; threads <= 4; threads++ {
			ex, err := execute(base, &p.Header, c, DefaultConfig(threads), params, nil, false)
			if err != nil {
				t.Fatalf("seed %d threads %d: execute: %v", seed, threads, err)
			}
			res, err := ex.commit(pres.State, params)
			if err != nil {
				t.Fatalf("seed %d threads %d: commit: %v", seed, threads, err)
			}
			if res.State.Root() != c.Header.StateRoot {
				t.Fatalf("seed %d threads %d: root %s, header %s", seed, threads, res.State.Root(), c.Header.StateRoot)
			}
			sameOutcome(t, res, plain)
		}
	}
}
