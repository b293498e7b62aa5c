package pipeline

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// branch is a (post-state, header) pair a new block can be proposed on.
type branch struct {
	state  *state.Snapshot
	header *types.Header
}

// forkFixture builds a small population and returns the chain, generator,
// params and genesis branch.
func forkFixture(t *testing.T) (*chain.Chain, *workload.Generator, chain.Params, branch) {
	t.Helper()
	cfg := workload.Default()
	cfg.NumAccounts = 300
	cfg.TxPerBlock = 40
	g := workload.New(cfg)
	genesis := g.GenesisState()
	params := chain.DefaultParams()
	c := chain.NewChain(genesis, params)
	return c, g, params, branch{state: genesis, header: &c.Genesis().Header}
}

// proposeOn packs one block on top of b with a distinguishing coinbase byte.
func proposeOn(t *testing.T, g *workload.Generator, b branch, txs []*types.Transaction, tag byte, params chain.Params) (*types.Block, branch) {
	t.Helper()
	pool := mempool.New()
	pool.AddAll(txs)
	cb := coinbase
	cb[19] = tag
	res, err := core.Propose(b.state, b.header, pool, core.ProposerConfig{
		Threads: 2, Coinbase: cb, Time: b.header.Number + 1,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != len(txs) {
		t.Fatalf("packed %d of %d", res.Committed, len(txs))
	}
	return res.Block, branch{state: res.State, header: &res.Block.Header}
}

// TestPipelineForkBranchesEachExtend: two same-height siblings validate
// concurrently and *both* fork branches are then extended — children of the
// non-canonical sibling must validate too (validators see more blocks than
// proposers, paper §3.4).
func TestPipelineForkBranchesEachExtend(t *testing.T) {
	c, g, params, root := forkFixture(t)
	txs1 := g.NextBlockTxs()
	blkA, brA := proposeOn(t, g, root, txs1, 0, params)
	blkB, brB := proposeOn(t, g, root, txs1, 1, params) // same height, same txs, different coinbase
	if blkA.Hash() == blkB.Hash() {
		t.Fatal("siblings must differ")
	}
	txs2 := g.NextBlockTxs()
	childA, _ := proposeOn(t, g, brA, txs2, 0, params)
	childB, _ := proposeOn(t, g, brB, txs2, 1, params)

	p := New(c, validator.DefaultConfig(4), nil)
	// Children first: both park behind different parents.
	p.Submit(childA)
	p.Submit(childB)
	p.Submit(blkA)
	p.Submit(blkB)
	p.Close()
	ok := 0
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %d %s: %v", out.Block.Number(), out.Block.Hash(), out.Err)
		}
		ok++
	}
	if ok != 4 {
		t.Fatalf("validated %d of 4", ok)
	}
	if got := len(c.BlocksAt(2)); got != 2 {
		t.Fatalf("%d blocks at height 2, want both fork children", got)
	}
}

// TestPipelineLateParentMidFlight: a child submitted while its parent is
// still in the execution phase must park and then be released by the
// parent's commitment — the parent-waiting path under real overlap. A task
// wrapper stalls the parent's lanes to hold the window open.
func TestPipelineLateParentMidFlight(t *testing.T) {
	c, g, params, root := forkFixture(t)
	parentBlk, br := proposeOn(t, g, root, g.NextBlockTxs(), 0, params)
	childBlk, _ := proposeOn(t, g, br, g.NextBlockTxs(), 0, params)

	pool := NewWorkerPool(4)
	defer pool.Close()
	var stalled atomic.Int64
	release := make(chan struct{})
	pool.SetTaskWrapper(func(f func()) func() {
		return func() {
			if stalled.Add(1) == 1 {
				<-release // hold the first lane until the child is submitted
			}
			f()
		}
	})
	p := New(c, validator.DefaultConfig(4), pool)
	p.Submit(parentBlk)
	// Wait until at least one of the parent's lanes is running, then submit
	// the child mid-flight and let the parent finish.
	for stalled.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	p.Submit(childBlk)
	close(release)
	pool.SetTaskWrapper(nil)
	p.Close()
	got := map[uint64]bool{}
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %d: %v", out.Block.Number(), out.Err)
		}
		got[out.Block.Number()] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("missing outcomes: %v", got)
	}
}

// TestPipelineAbandonedForkSubtree: a fork branch whose root never arrives
// is abandoned transitively (child and grandchild), while the canonical
// branch commits untouched.
func TestPipelineAbandonedForkSubtree(t *testing.T) {
	c, g, params, root := forkFixture(t)
	txs1 := g.NextBlockTxs()
	canon, _ := proposeOn(t, g, root, txs1, 0, params)
	_, brLost := proposeOn(t, g, root, txs1, 1, params) // sibling never submitted
	txs2 := g.NextBlockTxs()
	lostChild, brLost2 := proposeOn(t, g, brLost, txs2, 1, params)
	lostGrandchild, _ := proposeOn(t, g, brLost2, g.NextBlockTxs(), 1, params)

	p := New(c, validator.DefaultConfig(4), nil)
	p.Submit(lostGrandchild)
	p.Submit(lostChild)
	p.Submit(canon)
	p.Wait()
	cause := errors.New("fork branch cancelled")
	if n := p.Abandon(cause); n != 2 {
		t.Fatalf("abandoned %d, want 2", n)
	}
	p.Close()
	var okCount, failCount int
	for out := range p.Results() {
		if out.Err != nil {
			if !errors.Is(out.Err, cause) {
				t.Fatalf("unexpected failure cause: %v", out.Err)
			}
			failCount++
		} else {
			okCount++
		}
	}
	if okCount != 1 || failCount != 2 {
		t.Fatalf("ok=%d fail=%d, want 1/2", okCount, failCount)
	}
	if c.Height() != 1 {
		t.Fatalf("head height = %d", c.Height())
	}
}

// TestPipelineTamperedCopyThenGoodCopy: a relay edits a block's profile,
// which keeps the block's hash but not its body. The edited copy reaches the
// pipeline before the genuine block, while a child of that block is parked:
// the copy is rejected at once with the body error, and the child commits
// once the genuine block validates, with nothing resubmitted.
func TestPipelineTamperedCopyThenGoodCopy(t *testing.T) {
	c, g, params, root := forkFixture(t)
	good, br := proposeOn(t, g, root, g.NextBlockTxs(), 0, params)
	child, _ := proposeOn(t, g, br, g.NextBlockTxs(), 0, params)

	tampered := *good
	prof, err := types.DecodeBlockProfile(good.Profile.Encode())
	if err != nil {
		t.Fatal(err)
	}
	// Claim an extra phantom write in tx 0's write set.
	phantom := types.StorageKey(types.HexToAddress("0xdeadbeef"), types.BytesToHash([]byte{9}))
	prof.Txs[0].Writes = append(prof.Txs[0].Writes, phantom)
	tampered.Profile = prof
	if tampered.Hash() != good.Hash() {
		t.Fatal("a relay's profile edit must keep the block hash")
	}

	p := New(c, validator.DefaultConfig(4), nil)
	p.Submit(child)     // parks behind good.Hash()
	p.Submit(&tampered) // rejected at its body; the child stays parked
	if out := <-p.Results(); out.Block != &tampered || !errors.Is(out.Err, chain.ErrBodyMismatch) {
		t.Fatalf("first outcome: block %d, err %v; want the tampered copy's body mismatch", out.Block.Number(), out.Err)
	}
	p.Submit(good)
	for _, want := range []*types.Block{good, child} {
		if out := <-p.Results(); out.Block != want || out.Err != nil {
			t.Fatalf("outcome: block %d, err %v; want block %d committed", out.Block.Number(), out.Err, want.Number())
		}
	}
	p.Close()
	if c.Height() != 2 || c.StateOf(child.Hash()) == nil {
		t.Fatalf("head height = %d, want the child at 2", c.Height())
	}
}

// TestPipelineForkOverlapWithStalls: many same-height siblings validated
// through a small shared pool with randomized stage stalls — the overlap
// paths must stay correct when lanes are delayed arbitrarily.
func TestPipelineForkOverlapWithStalls(t *testing.T) {
	c, g, params, root := forkFixture(t)
	txs := g.NextBlockTxs()
	var blocks []*types.Block
	for i := 0; i < 4; i++ {
		b, _ := proposeOn(t, g, root, txs, byte(i), params)
		blocks = append(blocks, b)
	}
	pool := NewWorkerPool(3)
	defer pool.Close()
	var n atomic.Int64
	pool.SetTaskWrapper(func(f func()) func() {
		return func() {
			if n.Add(1)%3 == 0 {
				time.Sleep(2 * time.Millisecond) // periodic stage stall
			}
			f()
		}
	})
	p := New(c, validator.DefaultConfig(3), pool)
	for _, b := range blocks {
		p.Submit(b)
	}
	p.Close()
	ok := 0
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %s: %v", out.Block.Hash(), out.Err)
		}
		ok++
	}
	if ok != len(blocks) {
		t.Fatalf("validated %d of %d", ok, len(blocks))
	}
	if got := len(c.BlocksAt(1)); got != len(blocks) {
		t.Fatalf("%d siblings stored, want %d", got, len(blocks))
	}
}
