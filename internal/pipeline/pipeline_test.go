package pipeline

import (
	"errors"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

var coinbase = types.HexToAddress("0xc01bbace")

// buildChain proposes `n` sequential blocks (and optionally `forks` extra
// sibling blocks per height with a different coinbase).
func buildChain(t *testing.T, n, forks int) (*chain.Chain, [][]*types.Block) {
	t.Helper()
	cfg := workload.Default()
	cfg.NumAccounts = 400
	cfg.TxPerBlock = 60
	g := workload.New(cfg)
	genesis := g.GenesisState()
	params := chain.DefaultParams()
	c := chain.NewChain(genesis, params)

	parentState := genesis
	parentHeader := &c.Genesis().Header
	var heights [][]*types.Block
	for i := 0; i < n; i++ {
		txs := g.NextBlockTxs()
		var level []*types.Block
		roundState, roundHeader := parentState, parentHeader
		for f := 0; f <= forks; f++ {
			pool := mempool.New()
			pool.AddAll(txs)
			cb := coinbase
			cb[19] = byte(f) // forked siblings differ by coinbase
			res, err := core.Propose(roundState, roundHeader, pool, core.ProposerConfig{
				Threads: 4, Coinbase: cb, Time: uint64(i + 1),
			}, params)
			if err != nil {
				t.Fatal(err)
			}
			if res.Committed != len(txs) {
				t.Fatalf("height %d fork %d: packed %d of %d", i+1, f, res.Committed, len(txs))
			}
			level = append(level, res.Block)
			if f == 0 {
				// The canonical branch continues from sibling 0.
				parentState = res.State
				parentHeader = &res.Block.Header
			}
		}
		heights = append(heights, level)
	}
	return c, heights
}

func TestPipelineSequentialBlocks(t *testing.T) {
	c, heights := buildChain(t, 4, 0)
	p := New(c, validator.DefaultConfig(8), nil)
	for _, level := range heights {
		p.Submit(level[0])
	}
	p.Close()
	count := 0
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %d: %v", out.Block.Number(), out.Err)
		}
		count++
	}
	if count != 4 {
		t.Fatalf("%d outcomes", count)
	}
	if c.Height() != 4 {
		t.Fatalf("head height = %d", c.Height())
	}
}

func TestPipelineOutOfOrderSubmission(t *testing.T) {
	c, heights := buildChain(t, 4, 0)
	p := New(c, validator.DefaultConfig(8), nil)
	// Submit children before parents: the pipeline must hold them.
	for i := len(heights) - 1; i >= 0; i-- {
		p.Submit(heights[i][0])
	}
	p.Close()
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %d: %v", out.Block.Number(), out.Err)
		}
	}
	if c.Height() != 4 {
		t.Fatalf("head height = %d", c.Height())
	}
}

func TestPipelineForkSiblingsConcurrent(t *testing.T) {
	c, heights := buildChain(t, 2, 2) // 3 siblings per height
	p := New(c, validator.DefaultConfig(8), nil)
	for _, level := range heights {
		for _, b := range level {
			p.Submit(b)
		}
	}
	p.Close()
	validated := 0
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %s: %v", out.Block.Hash(), out.Err)
		}
		validated++
	}
	if validated != 6 {
		t.Fatalf("validated %d of 6", validated)
	}
	if got := len(c.BlocksAt(1)); got != 3 {
		t.Fatalf("%d blocks stored at height 1", got)
	}
	// Only the canonical branch continues to height 2 (children of sibling 0).
	if got := len(c.BlocksAt(2)); got != 3 {
		t.Fatalf("%d blocks stored at height 2", got)
	}
}

func TestPipelineRejectsBadBlockAndDescendants(t *testing.T) {
	c, heights := buildChain(t, 3, 0)
	p := New(c, validator.DefaultConfig(4), nil)
	bad := *heights[0][0]
	bad.Header.StateRoot[0] ^= 1
	p.Submit(&bad)
	// heights[1] and [2] descend from the ORIGINAL first block, whose hash
	// differs from bad's; they wait forever and must be abandoned.
	p.Submit(heights[1][0])
	p.Submit(heights[2][0])
	p.Wait()
	abandoned := p.Abandon(errors.New("parent never validated"))
	p.Close()
	if abandoned != 2 {
		t.Fatalf("abandoned %d, want 2", abandoned)
	}
	failures := 0
	for out := range p.Results() {
		if out.Err != nil {
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("%d failures, want 3", failures)
	}
	if c.Height() != 0 {
		t.Fatalf("head height = %d after rejected chain", c.Height())
	}
}

func TestPipelineDescendantOfRejectedBlockFails(t *testing.T) {
	c, heights := buildChain(t, 2, 0)
	p := New(c, validator.DefaultConfig(4), nil)
	bad := *heights[0][0]
	bad.Header.GasUsed++ // invalid, and changes bad's hash
	// Build a child that names the bad block as parent.
	child := *heights[1][0]
	child.Header.ParentHash = bad.Hash()
	p.Submit(&child) // waits on bad
	p.Submit(&bad)   // fails → child must fail too
	p.Wait()
	p.Close()
	results := map[uint64]error{}
	for out := range p.Results() {
		results[out.Block.Number()] = out.Err
	}
	if results[1] == nil {
		t.Fatal("bad block accepted")
	}
	if results[2] == nil {
		t.Fatal("descendant of bad block accepted")
	}
}

func TestSharedWorkerPool(t *testing.T) {
	c, heights := buildChain(t, 1, 3) // 4 siblings at height 1
	pool := NewWorkerPool(8)
	defer pool.Close()
	p := New(c, validator.DefaultConfig(4), pool)
	for _, b := range heights[0] {
		p.Submit(b)
	}
	p.Close() // does not close the externally-owned pool
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %s: %v", out.Block.Hash(), out.Err)
		}
	}
}

// TestChildReportsAfterParent holds a parent between its insert into the
// chain and the send of its outcome, and submits its child there: the child
// must wait for that send, so Results reports the parent first.
func TestChildReportsAfterParent(t *testing.T) {
	c, heights := buildChain(t, 2, 0)
	parent, child := heights[0][0], heights[1][0]
	inserted, proceed := make(chan struct{}), make(chan struct{})
	afterInsert = func(b *types.Block) {
		if b == parent {
			close(inserted)
			<-proceed
		}
	}
	t.Cleanup(func() { afterInsert = nil })
	p := New(c, validator.DefaultConfig(4), nil)
	p.Submit(parent)
	<-inserted
	p.Submit(child)
	p.mu.Lock()
	parked := len(p.waiting[parent.Hash()])
	p.mu.Unlock()
	close(proceed)
	p.Close()
	var order []uint64
	for out := range p.Results() {
		if out.Err != nil {
			t.Fatalf("block %d: %v", out.Block.Number(), out.Err)
		}
		order = append(order, out.Block.Number())
	}
	if parked != 1 || len(order) != 2 || order[0] != 1 {
		t.Fatalf("child parked %d, outcomes in order %v: a child started before its parent reported", parked, order)
	}
}

// TestSubmitBelowWindow: a block whose parent validated but has left the
// chain's StateWindow fails at once with ErrStatePruned instead of parking
// behind a parent state that will never come back.
func TestSubmitBelowWindow(t *testing.T) {
	c, heights := buildChain(t, chain.StateWindow+3, 1)
	p := New(c, validator.DefaultConfig(4), nil)
	defer p.Close()
	for _, level := range heights {
		p.Submit(level[0])
		if out := <-p.Results(); out.Err != nil {
			t.Fatalf("block %d: %v", out.Block.Number(), out.Err)
		}
	}
	p.Wait()
	waiting := telemetry.PipelineWaiting.Value()

	sib := heights[1][1] // height 2, on a parent pruned at head StateWindow+2
	p.Submit(sib)
	select {
	case out := <-p.Results():
		if out.Block != sib || !errors.Is(out.Err, chain.ErrStatePruned) {
			t.Fatalf("block %d: err = %v, want ErrStatePruned", out.Block.Number(), out.Err)
		}
	default:
		t.Fatal("no immediate outcome: the block was parked")
	}
	if n := p.Pending(); n != 0 {
		t.Fatalf("%d blocks pending", n)
	}
	if got := telemetry.PipelineWaiting.Value(); got != waiting {
		t.Fatalf("PipelineWaiting = %d, want %d", got, waiting)
	}
}
