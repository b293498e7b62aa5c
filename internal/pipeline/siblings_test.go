package pipeline

import (
	"sync"
	"sync/atomic"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
)

// serialOn executes txs serially on b and seals the block with coinbase tag
// tag: siblings built this way share their transaction order, so a follower
// can take every result of a leader that verified them all.
func serialOn(t testing.TB, b branch, txs []*types.Transaction, tag byte, params chain.Params) (*types.Block, branch) {
	t.Helper()
	cb := coinbase
	cb[19] = tag
	header := &types.Header{ParentHash: b.header.Hash(), Number: b.header.Number + 1, Coinbase: cb, GasLimit: params.GasLimit, Time: b.header.Number + 1}
	res, err := chain.ExecuteSerial(b.state, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	blk := chain.SealBlock(b.header, cb, header.Time, txs, res, params)
	return blk, branch{state: res.State, header: &blk.Header}
}

// drain collects n outcomes by block hash.
func drain(p *Pipeline, n int) map[types.Hash]Outcome {
	outs := make(map[types.Hash]Outcome, n)
	for i := 0; i < n; i++ {
		out := <-p.Results()
		outs[out.Block.Hash()] = out
	}
	return outs
}

// accepted fails t unless blk's outcome is a commit of its header's root.
func accepted(t *testing.T, c *chain.Chain, outs map[types.Hash]Outcome, blk *types.Block) *validator.Result {
	t.Helper()
	out, ok := outs[blk.Hash()]
	if !ok || out.Err != nil {
		t.Fatalf("block %d %s: outcome %v, err %v", blk.Number(), blk.Hash(), ok, out.Err)
	}
	if st := c.StateOf(blk.Hash()); st == nil || st.Root() != blk.Header.StateRoot {
		t.Fatalf("block %d %s: not committed at its header root", blk.Number(), blk.Hash())
	}
	return out.Result
}

// TestPipelineThreeSiblings: three proposals on one parent validate on one
// record — the first submitted leads and takes nothing, the other two follow
// it — and each commits its own root.
func TestPipelineThreeSiblings(t *testing.T) {
	c, g, params, root := forkFixture(t)
	txs := g.NextBlockTxs()
	var blocks []*types.Block
	for tag := byte(0); tag < 3; tag++ {
		b, _ := proposeOn(t, g, root, txs, tag, params)
		blocks = append(blocks, b)
	}
	pool := NewWorkerPool(2)
	defer pool.Close()
	p := New(c, validator.DefaultConfig(2), pool)
	for _, b := range blocks {
		p.Submit(b)
	}
	outs := drain(p, len(blocks))
	p.Close()
	reused := 0
	for i, b := range blocks {
		res := accepted(t, c, outs, b)
		if i == 0 && res.Reused != 0 {
			t.Fatalf("the leader took %d results", res.Reused)
		}
		reused += res.Reused
	}
	if reused == 0 {
		t.Fatal("neither follower took a result")
	}
}

// TestPipelineTamperedLeaderSparesFollower: a tampered copy that leads its
// parent's record — rejected at its state root, or by its applier at a
// transaction whose profile gas is wrong — leaves a genuine follower
// accepted at the root its header commits to.
func TestPipelineTamperedLeaderSparesFollower(t *testing.T) {
	for _, tamper := range []string{"state root", "profile gas"} {
		c, g, params, root := forkFixture(t)
		txs := g.NextBlockTxs()
		genuine, _ := serialOn(t, root, txs, 0, params)
		follower, _ := serialOn(t, root, txs, 1, params)
		bad := *genuine
		if tamper == "state root" {
			bad.Header.StateRoot[0] ^= 0xff
		} else {
			bad.Profile = &types.BlockProfile{Txs: append([]*types.TxProfile(nil), genuine.Profile.Txs...)}
			tp := *bad.Profile.Txs[5]
			tp.GasUsed++
			bad.Profile.Txs[5] = &tp
			// A proposer's lie: the header commits to the edited profile.
			bad.Header.ProfileRoot = types.ComputeProfileRoot(bad.Profile)
		}
		p := New(c, validator.DefaultConfig(2), nil)
		p.Submit(&bad)
		p.Submit(follower)
		outs := drain(p, 2)
		p.Close()
		if outs[bad.Hash()].Err == nil {
			t.Fatalf("%s: tampered leader accepted", tamper)
		}
		accepted(t, c, outs, follower)
	}
}

// TestPipelineSiblingsChildFirst: a child that arrives before its parent
// parks, is released by the parent's commit into a record of its own (its
// parent differs from the siblings'), and commits.
func TestPipelineSiblingsChildFirst(t *testing.T) {
	c, g, params, root := forkFixture(t)
	txs := g.NextBlockTxs()
	leader, br := serialOn(t, root, txs, 0, params)
	follower, _ := serialOn(t, root, txs, 1, params)
	child, _ := proposeOn(t, g, br, g.NextBlockTxs(), 0, params)
	p := New(c, validator.DefaultConfig(2), nil)
	p.Submit(child)
	p.Submit(leader)
	p.Submit(follower)
	outs := drain(p, 3)
	p.Close()
	for _, b := range []*types.Block{leader, follower, child} {
		accepted(t, c, outs, b)
	}
}

// TestPipelineFollowerStalledAcrossRecycle: a follower whose lane stalls in
// the pool while its leader commits and the leader's child validates must
// still find the leader's record intact when it runs: the record lives until
// the last validation holding it returns, not until the chain moves on. The
// child's own record comes from the same recycling pool, so a record freed
// early would hand the follower the child's results, or none.
func TestPipelineFollowerStalledAcrossRecycle(t *testing.T) {
	c, g, params, root := forkFixture(t)
	txs := g.NextBlockTxs()
	leader, br := serialOn(t, root, txs, 0, params)
	follower, _ := serialOn(t, root, txs, 1, params)
	child, _ := serialOn(t, br, g.NextBlockTxs(), 0, params)

	// One lane per block: the leader's is the first task submitted, held
	// until the follower has joined the leader's record; the follower's
	// (queued once the leader's has started) the second; the child is
	// submitted only after that.
	pool := NewWorkerPool(2)
	defer pool.Close()
	var submitted atomic.Int64
	joined, queued, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	unstall := sync.OnceFunc(func() { close(release) })
	defer unstall() // before pool.Close, should a check below fail
	pool.SetTaskWrapper(func(f func()) func() {
		gate := joined
		switch submitted.Add(1) {
		case 1:
		case 2:
			close(queued)
			gate = release
		default:
			return f
		}
		return func() {
			<-gate
			f()
		}
	})
	p := New(c, validator.DefaultConfig(1), pool)
	p.Submit(leader)
	p.Submit(follower)
	close(joined)
	<-queued
	accepted(t, c, drain(p, 1), leader)
	p.Submit(child)
	accepted(t, c, drain(p, 1), child)
	unstall()
	res := accepted(t, c, drain(p, 1), follower)
	p.Close()
	if res.Reused != len(follower.Txs) {
		t.Fatalf("follower took %d of %d results from its committed leader", res.Reused, len(follower.Txs))
	}
}

// TestPipelineSiblingCap: 3 × maxSiblings blocks on one parent. While the
// first maxSiblings validations hold, the rest wait in the parent's queue and
// every block counts in Pending; at most maxSiblings validate at once and the
// rest start as those finish; every block commits with exactly one outcome,
// all on the leader's record, which outlives every one of them and is
// released with the last.
func TestPipelineSiblingCap(t *testing.T) {
	c, g, params, root := forkFixture(t)
	txs := g.NextBlockTxs()
	var blocks []*types.Block
	for tag := 0; tag < 3*maxSiblings; tag++ {
		b, _ := serialOn(t, root, txs, byte(tag), params)
		blocks = append(blocks, b)
	}
	p := New(c, validator.DefaultConfig(2), nil)
	gate, started := make(chan struct{}), make(chan struct{}, len(blocks))
	var mu sync.Mutex
	var running, peak int
	var sib *validator.Siblings
	beforeValidate = func(*types.Block) {
		mu.Lock()
		running++
		peak = max(peak, running)
		mu.Unlock()
		started <- struct{}{}
		<-gate
	}
	afterInsert = func(*types.Block) {
		p.mu.Lock()
		ref := p.siblings[root.header.Hash()]
		p.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		if sib == nil {
			sib = ref.sib
		}
		if ref.sib == nil || ref.sib != sib {
			t.Errorf("a validation ended on record %p, the parent's is %p", ref.sib, sib)
		}
		running--
	}
	t.Cleanup(func() { beforeValidate, afterInsert = nil, nil })
	for _, b := range blocks {
		p.Submit(b)
	}
	if n := p.Pending(); n != len(blocks) {
		t.Fatalf("Pending = %d with every validation held, want %d", n, len(blocks))
	}
	p.mu.Lock()
	queued := len(p.siblings[root.header.Hash()].queued)
	p.mu.Unlock()
	if queued != len(blocks)-maxSiblings {
		t.Fatalf("%d siblings queued behind the running ones, want %d", queued, len(blocks)-maxSiblings)
	}
	for i := 0; i < maxSiblings; i++ {
		<-started
	}
	close(gate)
	outs := drain(p, len(blocks))
	p.Close()
	for out := range p.Results() {
		t.Fatalf("a second outcome for block %s", out.Block.Hash())
	}
	for _, b := range blocks {
		accepted(t, c, outs, b)
	}
	if peak != maxSiblings {
		t.Fatalf("%d validations ran at once on one parent, want the cap %d", peak, maxSiblings)
	}
	if len(p.siblings) != 0 {
		t.Fatalf("%d sibling records still held", len(p.siblings))
	}
}
