package pipeline

import (
	"errors"
	"slices"
	"testing"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// modelTree is the block tree FuzzPipelineVsModel submits from, and which
// blocks fail validation (bad) or their body check (tampered); the model
// reads every other verdict off the header.
type modelTree struct {
	genesis       *state.Snapshot
	params        chain.Params
	blocks        []*types.Block
	bad, tampered []bool
	orphan        *types.Block   // the template of a flood's unknown-parent blocks
	burst         []*types.Block // B1's ten valid children
}

// buildModelTree: B1 and a sibling on genesis; on B1, B2 and nine siblings
// of it (ten children, past maxSiblings); B3 on B2; B2 with a bad root and a
// child of it; B2 with a wrong gas limit and a child of it; B2 on an unknown
// parent; B2 past the window; and B1 and B2 with a phantom write in their
// profile, under their own hashes.
func buildModelTree(tb testing.TB) *modelTree {
	cfg := workload.Default()
	cfg.NumAccounts, cfg.TxPerBlock = 200, 6
	g := workload.New(cfg)
	tr := &modelTree{genesis: g.GenesisState(), params: chain.DefaultParams()}
	root := branch{state: tr.genesis, header: &chain.NewChain(tr.genesis, tr.params).Genesis().Header}
	add := func(b *types.Block, bad, tampered bool) *types.Block {
		tr.blocks, tr.bad, tr.tampered = append(tr.blocks, b), append(tr.bad, bad), append(tr.tampered, tampered)
		return b
	}
	edit := func(b *types.Block, bad bool, f func(*types.Header)) *types.Block {
		cp := *b
		f(&cp.Header)
		return add(&cp, bad, false)
	}
	tamper := func(b *types.Block) {
		prof, err := types.DecodeBlockProfile(b.Profile.Encode())
		if err != nil {
			tb.Fatal(err)
		}
		prof.Txs[0].Writes = append(prof.Txs[0].Writes, types.StorageKey(types.HexToAddress("0xdeadbeef"), types.BytesToHash([]byte{9})))
		cp := *b
		cp.Profile = prof
		add(&cp, false, true)
	}
	txs1, txs2 := g.NextBlockTxs(), g.NextBlockTxs()
	b1, br1 := serialOn(tb, root, txs1, 0, tr.params)
	add(b1, false, false)
	add(first(serialOn(tb, root, txs1, 1, tr.params)), false, false)
	b2, br2 := serialOn(tb, br1, txs2, 0, tr.params)
	add(b2, false, false)
	for tag := byte(1); tag <= 9; tag++ {
		add(first(serialOn(tb, br1, txs2, tag, tr.params)), false, false)
	}
	tr.burst = tr.blocks[2:12]
	b3 := add(first(serialOn(tb, br2, g.NextBlockTxs(), 0, tr.params)), false, false)
	badRoot := edit(b2, true, func(h *types.Header) { h.StateRoot[0] ^= 1 })
	edit(b3, false, func(h *types.Header) { h.ParentHash = badRoot.Hash() })
	gas := edit(b2, false, func(h *types.Header) { h.GasLimit++ })
	edit(b3, false, func(h *types.Header) { h.ParentHash = gas.Hash() })
	tr.orphan = edit(b2, false, func(h *types.Header) { h.ParentHash = types.Hash{0xde, 0xad} })
	edit(b2, false, func(h *types.Header) { h.Number = 3 + chain.StateWindow + 1 })
	tamper(b1)
	tamper(b2)
	return tr
}

func first(b *types.Block, _ branch) *types.Block { return b }

// sub is one submission, its own copy of a tree block so that its outcome
// names it, and the outcome the model gives it.
type sub struct {
	blk           *types.Block
	hash, parent  types.Hash
	bad, tampered bool
	want          error // nil: it commits
	after         int   // its outcome follows one of its parent's: afterCommit or afterFail
	done, seen    bool  // the model gave it an outcome; the pipeline did
}

const afterCommit, afterFail = 1, 2

// model is the pipeline's sequential reference: what each submission gets
// once every validation it started has finished.
type model struct {
	params            chain.Params
	head              uint64
	committed, failed map[types.Hash]bool // failed: the pipeline's record of blocks failed for good
	parked            []*sub              // in arrival order
	out               []*sub              // this step's outcomes
}

func (m *model) finish(s *sub, err error, after int) {
	s.want, s.after, s.done = err, after, true
	m.out = append(m.out, s)
}

func (m *model) submit(s *sub) {
	switch {
	case s.tampered:
		m.finish(s, chain.ErrBodyMismatch, 0)
	case s.blk.Header.GasLimit != m.params.GasLimit:
		m.reject(s, validator.ErrBadBlock, 0)
	case s.blk.Number() > m.head+chain.StateWindow:
		m.reject(s, ErrParkedCap, 0)
	case m.committed[s.parent]:
		delete(m.failed, s.hash)
		m.start(s)
	case m.failed[s.parent]:
		m.reject(s, ErrParentUnavailable, afterFail)
	default:
		delete(m.failed, s.hash)
		if len(m.parked) == maxParked {
			oldest := m.parked[0]
			m.parked = m.parked[1:]
			m.finish(oldest, ErrParkedCap, 0)
			m.failSubtree(oldest.hash, ErrParkedCap)
		}
		m.parked = append(m.parked, s)
	}
}

func (m *model) reject(s *sub, err error, after int) {
	m.finish(s, err, after)
	m.failed[s.hash] = true
	m.failSubtree(s.hash, err)
}

// children removes and returns the blocks parked on h, in arrival order.
func (m *model) children(h types.Hash) (out []*sub) {
	m.parked = slices.DeleteFunc(m.parked, func(s *sub) bool {
		if s.parent == h {
			out = append(out, s)
		}
		return s.parent == h
	})
	return out
}

func (m *model) failSubtree(h types.Hash, err error) {
	remember := m.failed[h]
	for _, c := range m.children(h) {
		m.finish(c, err, afterFail)
		if remember {
			m.failed[c.hash] = true
		}
		m.failSubtree(c.hash, err)
	}
}

// start validates s on its committed parent, then what was parked on it.
func (m *model) start(s *sub) {
	if s.bad {
		m.reject(s, validator.ErrBadBlock, afterCommit)
		return
	}
	m.finish(s, nil, afterCommit)
	m.committed[s.hash] = true
	m.head = max(m.head, s.blk.Number())
	for _, c := range m.children(s.hash) {
		m.start(c)
	}
}

// abandon is Close: every parked block fails, after its parent if that was
// parked too.
func (m *model) abandon() {
	for _, s := range m.parked {
		after := 0
		if slices.ContainsFunc(m.parked, func(q *sub) bool { return q.hash == s.parent }) {
			after = afterFail
		}
		m.finish(s, ErrParentUnavailable, after)
	}
	m.parked = nil
}

// FuzzPipelineVsModel submits tree blocks, bursts of B1's ten children,
// floods of unknown-parent blocks and a Close in the order the input names,
// lets every validation finish after each step, and holds the pipeline to
// the model: each submission's outcome, in the step the model gives it; one
// outcome per submission; no child's outcome before its parent's; Pending()
// equal to the parked count (≤ maxParked), 0 after Close; ≤ maxSiblings
// validations on one parent, each holding its parent's sibling record, and
// every record released at quiescence. An input-picked delay before each
// validation varies how blocks released together interleave.
func FuzzPipelineVsModel(f *testing.F) {
	tr := buildModelTree(f)
	flood, burst, closeOp := byte(len(tr.blocks)), byte(len(tr.blocks)+1), byte(len(tr.blocks)+2)
	f.Add([]byte{burst, 13, 12, 0, closeOp})
	f.Add([]byte{0, 13, 14, 16, 15, 16, 17, 18, 1})
	f.Add([]byte{20, 19, 2, 0, 2, flood, 12, 0, closeOp})
	f.Add([]byte{14, 13}) // Close: the bad root's outcome before its child's
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 48)]
		c := chain.NewChain(tr.genesis, tr.params)
		p := New(c, validator.DefaultConfig(2), nil)
		genesis := c.Genesis().Hash()
		m := &model{params: tr.params, committed: map[types.Hash]bool{genesis: true}, failed: map[types.Hash]bool{}}
		seen := map[types.Hash]int{genesis: afterCommit} // the outcomes each hash has had
		// At most maxSiblings validations on one parent, each holding its
		// sibling record. delay is set between steps, when none runs.
		running, delay := map[types.Hash]int{}, byte(0)
		watch := func(b *types.Block, d int) {
			p.mu.Lock()
			defer p.mu.Unlock()
			if running[b.Header.ParentHash] += d; running[b.Header.ParentHash] > maxSiblings || p.siblings[b.Header.ParentHash].sib == nil {
				t.Errorf("block %d: %d validations on its parent, record %p", b.Number(), running[b.Header.ParentHash], p.siblings[b.Header.ParentHash].sib)
			}
		}
		beforeValidate = func(b *types.Block) {
			watch(b, 1)
			time.Sleep(time.Duration((b.Hash()[0]^delay)%4) * 100 * time.Microsecond)
		}
		afterInsert = func(b *types.Block) { watch(b, -1) }
		t.Cleanup(func() { beforeValidate, afterInsert = nil, nil })

		subs := map[*types.Block]*sub{}
		submit := func(b *types.Block, bad, tampered bool) {
			cp := *b
			s := &sub{blk: &cp, hash: cp.Hash(), parent: cp.Header.ParentHash, bad: bad, tampered: tampered}
			subs[s.blk] = s
			m.submit(s)
			p.Submit(s.blk)
		}
		floods, closed := 0, false
		for step := 0; !closed; step++ {
			m.out = m.out[:0]
			op := closeOp
			if step < len(ops) {
				delay, op = ops[step], ops[step]%(closeOp+1)
			}
			switch {
			case op < flood:
				submit(tr.blocks[op], tr.bad[op], tr.tampered[op])
			case op == flood:
				for k := maxParked - len(m.parked) + 1; k > 0; k-- {
					floods++
					b := *tr.orphan
					b.Header.ParentHash = types.Hash{0xf1, byte(floods >> 8), byte(floods)}
					submit(&b, false, false)
				}
			case op == burst:
				for _, b := range tr.burst {
					submit(b, false, false)
				}
			default:
				m.abandon()
				closed = true
			}
			// A validation that never starts or never ends hangs Wait and Close.
			hung := time.AfterFunc(5*time.Second, func() { panic("a validation never finished") })
			if p.Wait(); closed {
				p.Close()
			}
			hung.Stop()
			for len(p.results) > 0 { // every outcome of the step is sent by now
				out := <-p.results
				s := subs[out.Block]
				switch {
				case s == nil:
					t.Fatalf("step %d: an outcome for a block never submitted", step)
				case s.seen:
					t.Fatalf("step %d: a second outcome for block %d", step, s.blk.Number())
				case !s.done:
					t.Fatalf("step %d: block %d got %v; the model parks it", step, s.blk.Number(), out.Err)
				case s.want == nil && out.Err != nil || s.want != nil && !errors.Is(out.Err, s.want):
					t.Fatalf("step %d: block %d got %v, the model says %v", step, s.blk.Number(), out.Err, s.want)
				case seen[s.parent]&s.after != s.after:
					t.Fatalf("step %d: block %d's outcome %v came before its parent's", step, s.blk.Number(), out.Err)
				}
				s.seen = true
				seen[s.hash] |= map[bool]int{true: afterCommit, false: afterFail}[out.Err == nil]
			}
			for _, s := range m.out {
				if !s.seen {
					t.Fatalf("step %d: block %d: no outcome, the model says %v", step, s.blk.Number(), s.want)
				}
			}
			if pending := p.Pending(); pending != len(m.parked) || len(p.siblings) != 0 {
				t.Fatalf("step %d: Pending %d, %d sibling records held; the model parks %d", step, pending, len(p.siblings), len(m.parked))
			}
		}
	})
}
