package validator

import (
	"slices"
	"sync"
	"sync/atomic"

	"blockpilot/internal/crypto"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// Siblings is the record that the validation of the first block on a given
// parent, the leader, shares with the validations of later blocks on that
// parent, the followers (DESIGN.md, "Sibling reuse"): the leader's result
// array. Each leader lane marks a transaction's result matched once it has
// matched the profile's keys and gas; a result counts as verified when every
// result before it in block order is matched too, which is when the leader's
// applier accepts it. A follower starts its lanes once all the leader's have
// started, and a follower lane takes a verified result instead of executing
// wherever the last-writer rule proves the transaction reads what the
// leader's copy read.
type Siblings struct {
	leader   *types.Block
	started  sync.WaitGroup // one count per queued leader lane until it starts, one until all are queued
	released bool           // the leader dropped its own count of started; touched by the leader only
	n        atomic.Int32   // results[:n] are matched: a verified prefix, maybe not the longest
	results  []result
}

// reusedTotal counts the transactions of accepted blocks that a follower
// took from its leader instead of executing.
var reusedTotal = telemetry.NewCounter("blockpilot_validator_reused_total",
	"Transactions of accepted blocks taken from a same-parent sibling's verified results instead of executed.")

// siblingsPool recycles records with their result arrays.
var siblingsPool = sync.Pool{New: func() any { return new(Siblings) }}

// NewSiblings returns an empty record for the blocks on leader's parent, with
// leader's validation as the one that fills it.
func NewSiblings(leader *types.Block) *Siblings {
	s := siblingsPool.Get().(*Siblings)
	s.leader, s.released = leader, false
	s.n.Store(0)
	s.results = slices.Grow(s.results[:0], len(leader.Txs))[:len(leader.Txs)]
	s.started.Add(1)
	return s
}

// Release recycles the record. Every validation handed it must have returned:
// a follower's lanes read the leader's results until its applier is done.
func (s *Siblings) Release() {
	clear(s.results)
	s.leader = nil
	siblingsPool.Put(s)
}

// lanesQueued drops the leader's own count of started: its lanes are all
// queued, or it failed before it had any. Only the first call counts.
func (s *Siblings) lanesQueued() {
	if !s.released {
		s.released = true
		s.started.Done()
	}
}

// verified reports whether the leader's applier accepts transaction i: its
// result and every earlier one are matched. Follower lanes extend the
// shared prefix n as they find it; a lane racing another may store a shorter
// one, which costs a rescan and nothing else.
func (s *Siblings) verified(i int32) bool {
	n := s.n.Load()
	for n <= i && s.results[n].state.Load() == matched {
		n++
	}
	s.n.Store(n)
	return n > i
}

// depWriters fills lw, for each transaction of txs in order, with the last
// earlier writer (−1 = the parent) of each of its dependency keys as wi,
// txs's writer index, names it: the keys it reads, then the account of
// every key it writes, because Overlay.ChangeSet carries a written
// account's loaded nonce and balance. Transaction i's entries end up at
// lw[off[i]:off[i+1]].
func (wi *writerIndex) depWriters(txs []*types.TxProfile, lw, off []int32) ([]int32, []int32) {
	writer := func(k types.StateKey, i int32) int32 {
		if e := wi.below(k, i); e >= 0 {
			return wi.list[e].pos
		}
		return -1
	}
	lw, off = lw[:0], append(off[:0], 0)
	for i, tp := range txs {
		for _, kv := range tp.Reads {
			lw = append(lw, writer(kv.Key, int32(i)))
		}
		for _, k := range tp.Writes {
			lw = append(lw, writer(types.AccountKey(k.Addr), int32(i)))
		}
		off = append(off, int32(len(lw)))
	}
	return lw, off
}

// follower is one follower block's plan over its sibling record, with the
// scratch that builds it, recycled: a forked round would otherwise pay for
// block-sized maps and slices again.
type follower struct {
	sib       *Siblings
	take      []int32        // per transaction: the leader index it may take, −1 = none
	lw, off   []int32        // the block's depWriters
	verdict   []atomic.Int32 // per transaction: +1 takeable, −1 not, 0 undecided; set once
	lwL, offL []int32        // the leader's depWriters
	index     map[types.Hash]int32
	enc       []byte
}

var followerPool = sync.Pool{New: func() any { return &follower{index: make(map[types.Hash]int32)} }}

// follow plans block's reuse from the two profiles, reading last writers
// from wi, block's writer index, and from one it builds over the leader's
// profile: transaction j may take
// leader transaction i when they are the same transaction, their profiles
// name the same keys, and each dependency key's last writer is the parent in
// both blocks, or in both the same transaction, itself planned to be taken.
// takeable settles the rest once the leader's lanes reach i. follow returns
// nil for a leader in another block context or with a malformed profile; a
// plan goes back with done once the block's lanes have returned.
func (s *Siblings) follow(block *types.Block, wi *writerIndex) *follower {
	l := s.leader
	h := &block.Header
	if h.Number != l.Header.Number || h.Time != l.Header.Time || h.GasLimit != l.Header.GasLimit ||
		l.Profile == nil || len(l.Profile.Txs) != len(l.Txs) {
		return nil
	}
	fw := followerPool.Get().(*follower)
	fw.sib = s
	// Lanes cache their transactions' hashes as they run, and the leader's
	// lanes are running: hash encodings here, without touching that cache.
	hash := func(tx *types.Transaction) types.Hash {
		fw.enc = tx.AppendTo(fw.enc[:0])
		return crypto.Sum256(fw.enc)
	}
	clear(fw.index)
	for i, tx := range l.Txs {
		fw.index[hash(tx)] = int32(i)
	}
	fw.lw, fw.off = wi.depWriters(block.Profile.Txs, fw.lw, fw.off)
	wiL := writerIndexes.Get().(*writerIndex)
	wiL.build(l.Profile.Txs)
	fw.lwL, fw.offL = wiL.depWriters(l.Profile.Txs, fw.lwL, fw.offL)
	writerIndexes.Put(wiL)
	fw.take = slices.Grow(fw.take[:0], len(block.Txs))[:len(block.Txs)]
	fw.verdict = slices.Grow(fw.verdict[:0], len(block.Txs))[:len(block.Txs)]
	clear(fw.verdict)
	for j, tx := range block.Txs {
		fw.take[j] = -1
		i, ok := fw.index[hash(tx)]
		if !ok || !block.Profile.Txs[j].SameAccessKeys(l.Profile.Txs[i]) {
			continue
		}
		f, w := fw.lw[fw.off[j]:fw.off[j+1]], fw.lwL[fw.offL[i]:fw.offL[i+1]]
		same := true
		for p := range f {
			if !(f[p] < 0 && w[p] < 0 || f[p] >= 0 && w[p] >= 0 && fw.take[f[p]] == w[p]) {
				same = false
				break
			}
		}
		if same {
			fw.take[j] = i
		}
	}
	return fw
}

// done recycles the plan.
func (fw *follower) done() {
	fw.sib = nil
	followerPool.Put(fw)
}

// takeable reports whether transaction j may take its planned leader result
// now: that result is verified, which makes the leader's keys and last
// writers the plan used true; its execution did not read the coinbase; and
// each dependency's last writer in this block is takeable too, so taken, or
// executed on the leader copy's inputs to the same result. A result not yet
// verified is not waited for: j executes, and that verdict is not kept — a
// transaction depending on j asks only once j's result is verified too. Any
// lane may ask about any transaction, so two can settle j at once: the first
// verdict stored wins, and both return it.
//
// The block's own profile is unverified. One that hides a write of an
// earlier transaction u can make j look takeable, but u's keys then differ
// from the leader's, so u executes and fails the applier's access-set check
// before j's turn: a lie can only get the block rejected.
func (fw *follower) takeable(j int32) bool {
	if v := fw.verdict[j].Load(); v != 0 {
		return v > 0
	}
	i := fw.take[j]
	if i < 0 || !fw.sib.verified(i) {
		return false
	}
	ok := !fw.sib.results[i].readCoinbase
	for _, f := range fw.lw[fw.off[j]:fw.off[j+1]] {
		if !ok {
			break
		}
		if f >= 0 {
			ok = fw.takeable(f)
		}
	}
	v := int32(-1)
	if ok {
		v = 1
	}
	fw.verdict[j].CompareAndSwap(0, v)
	return fw.verdict[j].Load() > 0
}
