package pipeline

import (
	"errors"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
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

// TestSubmitRejectsUnvalidatable: on a chain whose head is StateWindow+3
// heights up, a block on an unknown parent that can never validate gets its
// outcome at once and parks nothing — one under another gas limit, one at
// head − StateWindow, whose parent's state would be gone, and one more than
// StateWindow above head, beyond the parked-block cap — and a child parked
// behind it before it came gets the same error; a block one height inside
// either bound still parks behind its parent, its child behind it. With
// maxParked blocks parked, the next one fails the oldest arrival and its
// subtree with ErrParkedCap, and the waiting gauge follows.
func TestSubmitRejectsUnvalidatable(t *testing.T) {
	g := workload.New(workload.Default())
	genesis, params := g.GenesisState(), chain.DefaultParams()
	c := chain.NewChain(genesis, params)
	st, parent := genesis, c.Genesis()
	for i := 0; i < chain.StateWindow+3; i++ {
		res, err := core.Propose(st, &parent.Header, mempool.New(), core.ProposerConfig{
			Threads: 1, Coinbase: coinbase, Time: uint64(i + 1),
		}, params)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(res.Block, res.State); err != nil {
			t.Fatal(err)
		}
		st, parent = res.State, res.Block
	}
	head := c.Height()
	block := func(parentHash types.Hash, height, gasLimit uint64) *types.Block {
		b := *parent
		b.Header.ParentHash = parentHash
		b.Header.Number, b.Header.GasLimit = height, gasLimit
		return &b
	}
	orphan := func(height, gasLimit uint64) *types.Block { return block(types.Hash{0xde, 0xad}, height, gasLimit) }
	for _, tc := range []struct {
		name  string
		block *types.Block
		want  error // nil: the block parks
	}{
		{"gas limit", orphan(head, params.GasLimit+1), validator.ErrBadBlock},
		{"at the window's bound", orphan(head-chain.StateWindow, params.GasLimit), chain.ErrStatePruned},
		{"one above the bound", orphan(head-chain.StateWindow+1, params.GasLimit), nil},
		{"above the window's top", orphan(head+chain.StateWindow+1, params.GasLimit), ErrParkedCap},
		{"at the window's top", orphan(head+chain.StateWindow, params.GasLimit), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(c, validator.DefaultConfig(1), nil)
			defer p.Close()
			// The child sits one height up, but no higher than the window's
			// top, so that it parks.
			child := block(tc.block.Hash(), min(tc.block.Number()+1, head+chain.StateWindow), params.GasLimit)
			p.Submit(child)
			if n := p.Pending(); n != 1 {
				t.Fatalf("%d blocks pending, want the child parked", n)
			}
			p.Submit(tc.block)
			if tc.want == nil {
				select {
				case out := <-p.Results():
					t.Fatalf("block %d: unexpected outcome %v", out.Block.Number(), out.Err)
				default:
				}
				if n := p.Pending(); n != 2 {
					t.Fatalf("%d blocks pending, want the block and its child parked", n)
				}
				return
			}
			for _, want := range []*types.Block{tc.block, child} {
				select {
				case out := <-p.Results():
					if out.Block != want || !errors.Is(out.Err, tc.want) {
						t.Fatalf("block %d: outcome err = %v, want block %d with %v",
							out.Block.Number(), out.Err, want.Number(), tc.want)
					}
				default:
					t.Fatalf("block %d: no immediate outcome, it was parked", want.Number())
				}
			}
			if n := p.Pending(); n != 0 {
				t.Fatalf("%d blocks pending after the outcomes", n)
			}
		})
	}
	t.Run("parked cap full", func(t *testing.T) {
		p := New(c, validator.DefaultConfig(1), nil)
		defer p.Close()
		waiting := telemetry.PipelineWaiting.Value()
		oldest := orphan(head+1, params.GasLimit)
		child := block(oldest.Hash(), head+2, params.GasLimit)
		p.Submit(oldest)
		p.Submit(child)
		for i := 2; i <= maxParked; i++ { // the last one finds the cap full
			p.Submit(block(types.Hash{0xca, byte(i), byte(i >> 8)}, head+1, params.GasLimit))
		}
		for _, want := range []*types.Block{oldest, child} {
			select {
			case out := <-p.Results():
				if out.Block != want || !errors.Is(out.Err, ErrParkedCap) {
					t.Fatalf("block %d: outcome err = %v, want block %d with ErrParkedCap",
						out.Block.Number(), out.Err, want.Number())
				}
			default:
				t.Fatalf("block %d: no outcome, the cap held it", want.Number())
			}
		}
		if n := p.Pending(); n != maxParked-1 {
			t.Fatalf("%d blocks pending, want %d", n, maxParked-1)
		}
		if got := telemetry.PipelineWaiting.Value() - waiting; got != maxParked-1 {
			t.Fatalf("PipelineWaiting rose by %d, want %d", got, maxParked-1)
		}
	})
}

// TestRejectMarks: each failed outcome leaves one zero-duration reject mark
// on the injected tracer and nothing on the installed recorder — for a block
// that fails its body check, one that unvalidatable fails, and a child
// parked behind that one, failed with its subtree.
func TestRejectMarks(t *testing.T) {
	c, g, params, root := forkFixture(t)
	good, _ := proposeOn(t, g, root, g.NextBlockTxs(), 0, params)
	tampered := *good // keeps the hash, fails the body check
	tampered.Txs = tampered.Txs[1:]
	bad := *good // fails unvalidatable
	bad.Header.GasLimit++
	child := *good // parks behind bad
	child.Header.ParentHash, child.Header.Number = bad.Hash(), 2

	installed := trace.Enable()
	defer trace.Disable()
	tr := trace.NewRecorder()
	cfg := validator.DefaultConfig(1)
	cfg.Node, cfg.Tracer = "v0", tr
	p := New(c, cfg, nil)
	defer p.Close()
	p.Submit(&child)
	p.Submit(&tampered)
	p.Submit(&bad)
	for _, want := range []*types.Block{&tampered, &bad, &child} {
		if out := <-p.Results(); out.Block != want || out.Err == nil {
			t.Fatalf("outcome: block %d, err %v; want block %d failed", out.Block.Number(), out.Err, want.Number())
		}
		var marks []trace.Event
		for _, ev := range tr.SpansFor(want.Hash()) {
			if ev.Stage == trace.StageReject {
				marks = append(marks, ev)
			}
		}
		if len(marks) != 1 || marks[0].Dur() != 0 || tr.Nodes()[marks[0].Worker] != "v0" || marks[0].Height != want.Number() {
			t.Fatalf("block %d: reject marks %+v, want one zero-duration mark on v0", want.Number(), marks)
		}
	}
	if n := len(installed.Events()); n != 0 {
		t.Fatalf("the installed recorder holds %d events, want none", n)
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

// TestLateChildOfFailedParent: a block that arrives after its parent failed
// for a reason the parent's header fixes — at Submit (gas limit) or in
// validation (state root) — fails at once with ErrParentUnavailable and one
// reject mark, and so does its own child, instead of parking until Close.
func TestLateChildOfFailedParent(t *testing.T) {
	c, g, params, root := forkFixture(t)
	good, _ := proposeOn(t, g, root, g.NextBlockTxs(), 0, params)
	gasLimit := *good
	gasLimit.Header.GasLimit++
	stateRoot := *good
	stateRoot.Header.StateRoot[0] ^= 1
	for _, bad := range []*types.Block{&gasLimit, &stateRoot} {
		tr := trace.NewRecorder()
		cfg := validator.DefaultConfig(1)
		cfg.Node, cfg.Tracer = "v0", tr
		p := New(c, cfg, nil)
		p.Submit(bad)
		if out := <-p.Results(); out.Block != bad || out.Err == nil {
			t.Fatalf("bad parent: block %d, err %v; want it failed", out.Block.Number(), out.Err)
		}
		p.Wait()
		child := *good
		child.Header.ParentHash, child.Header.Number = bad.Hash(), 2
		grandchild := *good
		grandchild.Header.ParentHash, grandchild.Header.Number = child.Hash(), 3
		for _, late := range []*types.Block{&child, &grandchild} {
			p.Submit(late)
			select {
			case out := <-p.Results():
				if out.Block != late || !errors.Is(out.Err, ErrParentUnavailable) {
					t.Fatalf("late block %d: err %v, want ErrParentUnavailable", out.Block.Number(), out.Err)
				}
			default:
				t.Fatalf("late block %d: no outcome, it was parked", late.Number())
			}
			if n := p.Pending(); n != 0 {
				t.Fatalf("%d blocks pending after the late block's outcome", n)
			}
			marks := 0
			for _, ev := range tr.SpansFor(late.Hash()) {
				if ev.Stage == trace.StageReject {
					marks++
				}
			}
			if marks != 1 {
				t.Fatalf("late block %d: %d reject marks, want 1", late.Number(), marks)
			}
		}
		p.Close()
	}
}

// TestBodyFailureNotRemembered: a copy that fails its body check leaves no
// record, so a child that arrives after it parks, and both validate once the
// right body comes under the same hash.
func TestBodyFailureNotRemembered(t *testing.T) {
	c, g, params, root := forkFixture(t)
	good, br := proposeOn(t, g, root, g.NextBlockTxs(), 0, params)
	child, _ := proposeOn(t, g, br, g.NextBlockTxs(), 0, params)
	tampered := *good // keeps the hash, fails the body check
	tampered.Txs = tampered.Txs[1:]

	p := New(c, validator.DefaultConfig(2), nil)
	defer p.Close()
	p.Submit(&tampered)
	if out := <-p.Results(); out.Block != &tampered || !errors.Is(out.Err, chain.ErrBodyMismatch) {
		t.Fatalf("tampered copy: block %d, err %v; want its body mismatch", out.Block.Number(), out.Err)
	}
	p.Submit(child)
	if n := p.Pending(); n != 1 {
		t.Fatalf("%d blocks pending, want the child parked", n)
	}
	p.Submit(good)
	for _, want := range []*types.Block{good, child} {
		if out := <-p.Results(); out.Block != want || out.Err != nil {
			t.Fatalf("outcome: block %d, err %v; want block %d committed", out.Block.Number(), out.Err, want.Number())
		}
	}
}
