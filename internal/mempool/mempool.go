// Package mempool implements the proposer's pending transaction pool: a
// gas-price max-heap (Algorithm 1's Heap) with per-sender nonce ordering.
//
// Invariant: for every sender with pending transactions, exactly one — the
// lowest-nonce one — is resident in the price heap; the rest wait in a
// nonce-sorted queue. Pop therefore returns the most valuable *executable*
// transaction, which keeps the OCC-WSI abort rate low (two in-flight
// transactions from one sender always conflict on the sender's account).
// Aborted transactions re-enter through Requeue, exactly as Algorithm 1
// pushes conflicted transactions back.
//
// The pool is safe for concurrent use by the proposer's worker threads and
// is built for low contention under many workers:
//
//   - the price heap has its own short mutex, held only for heap surgery;
//   - all per-sender bookkeeping (nonce queue, in-flight marker, resident
//     pointer) lives in a sharded sender table keyed by sender address, so
//     Add/Done/Requeue on different senders never collide;
//   - PopBatch/RequeueBatch/DoneBatch amortize one heap-lock acquisition
//     over several transactions (Pop is PopBatch(1)).
//
// Lock order: a sender-shard mutex may be held while taking the heap mutex,
// never the reverse. Pop works heap-first and settles the sender shard
// afterwards; the short window between the two is bridged by the item's
// atomic `popped` flag, which Add/replace/promote treat as "sender has an
// in-flight transaction whose settle is imminent".
package mempool

import (
	"container/heap"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// item is one heap entry with its index for O(log n) removal.
type item struct {
	tx    *types.Transaction
	index int
	// tier is the sender's abort-demotion tier frozen at push time (heap
	// comparisons must be static per item). 0 = normal priority; higher
	// tiers sort strictly after lower ones regardless of gas price. Always
	// 0 while abort-aware ordering is off.
	tier uint8
	// popped is set (under the heap mutex) the instant the item leaves the
	// heap through Pop/PopBatch. Until the popper settles the sender shard,
	// the shard's resident pointer still names this item; popped tells
	// every shard-side reader to treat the sender as blocked.
	popped atomic.Bool
}

// Abort-aware ordering constants: a requeue bumps the sender's abort EWMA
// (ewma·α + 1), a successful settle decays it (ewma·α), and the demotion
// tier is a bounded staircase over the EWMA. maxAbortTier caps how far a
// sender can sink — within the bottom tier price order still applies and
// the pool drains every block, so nothing is parked forever.
const (
	abortAlpha      = 0.8
	demoteThreshold = 2.0
	tierWidth       = 2.0
	maxAbortTier    = 3
)

// abortTierFor maps an abort EWMA to a demotion tier.
func abortTierFor(ewma float64) uint8 {
	if ewma < demoteThreshold {
		return 0
	}
	t := 1 + int((ewma-demoteThreshold)/tierWidth)
	if t > maxAbortTier {
		t = maxAbortTier
	}
	return uint8(t)
}

// senderShardCount shards the sender table; a power of two.
const senderShardCount = 16

// senderShard is one shard of the per-sender bookkeeping.
type senderShard struct {
	mu       sync.Mutex
	queues   map[types.Address][]*types.Transaction // nonce-sorted backlog
	inFlight map[types.Address]int                  // popped, neither Done nor Requeued
	resident map[types.Address]*item                // the sender's heap entry
	// requeues counts lifetime requeue (abort-retry) events per sender —
	// always tracked, so repeated aborters are observable even with the
	// abort-aware ordering off (ISSUE 9 satellite).
	requeues map[types.Address]uint64
	// abortEWMA is the decaying abort pressure per sender; only maintained
	// while abort-aware ordering is on.
	abortEWMA map[types.Address]float64
	_         [16]byte
}

// Pool is a concurrent pending-transaction pool.
type Pool struct {
	heapMu sync.Mutex
	heap   priceHeap

	shards [senderShardCount]senderShard
	count  atomic.Int64

	// abortAware switches the per-sender demotion-tier ordering on. Set by
	// the proposer when the adaptive controller runs with demotion enabled.
	abortAware atomic.Bool

	// executableHook, when set, is invoked (outside all pool locks) after
	// an operation makes a transaction executable (a heap push). The
	// proposer points it at its idle-worker wakeup.
	executableHook atomic.Pointer[func()]
}

// New returns an empty pool.
func New() *Pool {
	p := &Pool{}
	for i := range p.shards {
		p.shards[i] = senderShard{
			queues:    make(map[types.Address][]*types.Transaction),
			inFlight:  make(map[types.Address]int),
			resident:  make(map[types.Address]*item),
			requeues:  make(map[types.Address]uint64),
			abortEWMA: make(map[types.Address]float64),
		}
	}
	return p
}

// shardOf returns the sender's shard.
func (p *Pool) shardOf(s types.Address) *senderShard {
	h := uint64(14695981039346656037)
	for _, b := range s {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return &p.shards[(h*0x9E3779B97F4A7C15)>>32&(senderShardCount-1)]
}

// SetExecutableHook installs (or, with nil, removes) the became-executable
// callback. The hook runs outside every pool lock; it must be cheap and
// must not call back into the pool's write paths.
func (p *Pool) SetExecutableHook(f func()) {
	if f == nil {
		p.executableHook.Store(nil)
		return
	}
	p.executableHook.Store(&f)
}

// notifyExecutable fires the hook, if any. Called with no locks held.
func (p *Pool) notifyExecutable() {
	if f := p.executableHook.Load(); f != nil {
		(*f)()
	}
}

// Len returns the number of transactions currently held.
func (p *Pool) Len() int {
	return int(p.count.Load())
}

// Executable returns how many transactions are immediately poppable (the
// price-heap size): at most one per pending sender.
func (p *Pool) Executable() int {
	p.heapMu.Lock()
	defer p.heapMu.Unlock()
	return p.heap.Len()
}

// PriceBumpPercent is the minimum price increase for a replacement
// transaction (same sender and nonce) to evict the pending one.
const PriceBumpPercent = 10

// ErrReplaceUnderpriced rejects a same-nonce replacement whose gas price
// does not exceed the pending transaction's by at least PriceBumpPercent.
var ErrReplaceUnderpriced = errors.New("mempool: replacement transaction underpriced")

// Add inserts a transaction. Transactions may arrive in any nonce order;
// a lower nonce displaces the sender's current heap resident. A transaction
// with the same (sender, nonce) as a pending one replaces it when its gas
// price is at least PriceBumpPercent higher, and is rejected otherwise.
func (p *Pool) Add(tx *types.Transaction) error {
	sh := p.shardOf(tx.From)
	sh.mu.Lock()
	err := p.replaceIfPending(sh, tx)
	if err != nil {
		sh.mu.Unlock()
		if errors.Is(err, errReplaced) {
			p.notifyExecutable() // replacement re-enters the heap
			return nil
		}
		return err
	}
	p.count.Add(1)
	telemetry.MempoolPending.Set(p.count.Load())
	pushed := p.insert(sh, tx)
	sh.mu.Unlock()
	trace.Admit(tx)
	if pushed {
		p.notifyExecutable()
	}
	return nil
}

// errReplaced signals that replaceIfPending already installed the tx.
var errReplaced = errors.New("replaced")

// replaceIfPending handles same-(sender, nonce) replacement (shard lock
// held). Returns nil when no pending tx matches, errReplaced when the
// replacement was installed, ErrReplaceUnderpriced when rejected.
func (p *Pool) replaceIfPending(sh *senderShard, tx *types.Transaction) error {
	s := tx.From
	bumpOK := func(old *types.Transaction) bool {
		// new price ≥ old price × (100 + bump) / 100, in integer math.
		var threshold, hundred, factor uint256.Int
		hundred.SetUint64(100)
		factor.SetUint64(100 + PriceBumpPercent)
		threshold.Mul(&old.GasPrice, &factor)
		threshold.Div(&threshold, &hundred)
		return tx.GasPrice.Gt(&threshold) || tx.GasPrice.Eq(&threshold)
	}
	if res := sh.resident[s]; res != nil && res.tx.Nonce == tx.Nonce && !res.popped.Load() {
		if !bumpOK(res.tx) {
			return ErrReplaceUnderpriced
		}
		// Swap inside the heap under the heap lock; re-check popped there —
		// a concurrent PopBatch may have taken the item between the check
		// above and this critical section.
		p.heapMu.Lock()
		if res.popped.Load() {
			p.heapMu.Unlock()
			return nil // fell in flight: treat as no pending match
		}
		heap.Remove(&p.heap, res.index)
		it := &item{tx: tx, tier: p.tierOf(sh, s)}
		heap.Push(&p.heap, it)
		p.heapMu.Unlock()
		sh.resident[s] = it
		telemetry.MempoolReplacements.Inc()
		return errReplaced
	}
	q := sh.queues[s]
	for i, old := range q {
		if old.Nonce != tx.Nonce {
			continue
		}
		if !bumpOK(old) {
			return ErrReplaceUnderpriced
		}
		q[i] = tx
		telemetry.MempoolReplacements.Inc()
		return errReplaced
	}
	return nil
}

// AddAll inserts a batch of transactions, ignoring underpriced replacements.
func (p *Pool) AddAll(txs []*types.Transaction) {
	for _, tx := range txs {
		_ = p.Add(tx)
	}
}

// Requeue returns an aborted in-flight transaction for retry. It clears one
// in-flight slot for the sender; the transaction becomes eligible again once
// no earlier in-flight transaction of the sender remains.
func (p *Pool) Requeue(tx *types.Transaction) {
	sh := p.shardOf(tx.From)
	sh.mu.Lock()
	pushed := p.requeueLocked(sh, tx)
	sh.mu.Unlock()
	p.count.Add(1)
	telemetry.MempoolPending.Set(p.count.Load())
	if pushed {
		p.notifyExecutable()
	}
}

// RequeueBatch returns several aborted transactions in one pass, taking each
// sender shard at most once per transaction but signalling waiters once.
func (p *Pool) RequeueBatch(txs []*types.Transaction) {
	if len(txs) == 0 {
		return
	}
	pushed := false
	for _, tx := range txs {
		sh := p.shardOf(tx.From)
		sh.mu.Lock()
		if p.requeueLocked(sh, tx) {
			pushed = true
		}
		sh.mu.Unlock()
	}
	p.count.Add(int64(len(txs)))
	telemetry.MempoolPending.Set(p.count.Load())
	if pushed {
		p.notifyExecutable()
	}
}

// requeueLocked is Requeue's core (shard lock held). Reports whether a
// transaction entered the heap.
func (p *Pool) requeueLocked(sh *senderShard, tx *types.Transaction) bool {
	s := tx.From
	sh.requeues[s]++
	if p.abortAware.Load() {
		before := sh.abortEWMA[s]
		after := before*abortAlpha + 1
		sh.abortEWMA[s] = after
		if abortTierFor(before) == 0 && abortTierFor(after) > 0 {
			telemetry.AdaptiveDemotedSenders.Inc()
		}
	}
	p.decInFlight(sh, s)
	return p.insert(sh, tx)
}

// Done reports that a popped transaction is finished for good (committed or
// permanently dropped), unblocking the sender's next nonce.
func (p *Pool) Done(tx *types.Transaction) {
	sh := p.shardOf(tx.From)
	sh.mu.Lock()
	sh.decayAbort(tx.From)
	p.decInFlight(sh, tx.From)
	pushed := p.promote(sh, tx.From)
	sh.mu.Unlock()
	if pushed {
		p.notifyExecutable()
	}
}

// DoneBatch settles several popped transactions, signalling waiters once.
func (p *Pool) DoneBatch(txs []*types.Transaction) {
	pushed := false
	for _, tx := range txs {
		sh := p.shardOf(tx.From)
		sh.mu.Lock()
		sh.decayAbort(tx.From)
		p.decInFlight(sh, tx.From)
		if p.promote(sh, tx.From) {
			pushed = true
		}
		sh.mu.Unlock()
	}
	if pushed {
		p.notifyExecutable()
	}
}

// decayAbort relaxes the sender's abort EWMA on a successful settle (shard
// lock held); drained entries are deleted so the map tracks only pressure.
func (sh *senderShard) decayAbort(s types.Address) {
	if e, ok := sh.abortEWMA[s]; ok {
		e *= abortAlpha
		if e < 0.05 {
			delete(sh.abortEWMA, s)
		} else {
			sh.abortEWMA[s] = e
		}
	}
}

// tierOf returns the sender's current demotion tier (shard lock held).
func (p *Pool) tierOf(sh *senderShard, s types.Address) uint8 {
	if !p.abortAware.Load() {
		return 0
	}
	return abortTierFor(sh.abortEWMA[s])
}

func (p *Pool) decInFlight(sh *senderShard, s types.Address) {
	if n := sh.inFlight[s]; n <= 1 {
		delete(sh.inFlight, s)
	} else {
		sh.inFlight[s] = n - 1
	}
}

// blocked reports whether the sender may not gain a new heap resident:
// either a popped transaction is still in flight, or a pop is being settled
// (resident pointer still names a popped item).
func (sh *senderShard) blocked(s types.Address) bool {
	if sh.inFlight[s] > 0 {
		return true
	}
	if res := sh.resident[s]; res != nil && res.popped.Load() {
		return true
	}
	return false
}

// promote moves the sender's queue head into the heap when the sender has
// no in-flight transaction and no resident (shard lock held). Reports
// whether a heap push happened.
func (p *Pool) promote(sh *senderShard, s types.Address) bool {
	if sh.blocked(s) || sh.resident[s] != nil {
		return false
	}
	q := sh.queues[s]
	if len(q) == 0 {
		return false
	}
	if len(q) == 1 {
		delete(sh.queues, s)
	} else {
		sh.queues[s] = q[1:]
	}
	it := &item{tx: q[0], tier: p.tierOf(sh, s)}
	p.heapMu.Lock()
	heap.Push(&p.heap, it)
	p.heapMu.Unlock()
	sh.resident[s] = it
	return true
}

// insert places tx into the sender's pending set (shard lock held): the tx
// joins the nonce queue, a resident that it displaces is demoted, and the
// lowest queued nonce is promoted into the heap when the sender is
// unblocked. Reports whether a heap push happened.
func (p *Pool) insert(sh *senderShard, tx *types.Transaction) bool {
	s := tx.From
	if sh.blocked(s) {
		// A sender with an in-flight transaction never gets a resident: its
		// successors would only fail the nonce check until it settles.
		queueInsert(sh, s, tx)
		return false
	}
	if res := sh.resident[s]; res != nil {
		if tx.Nonce >= res.tx.Nonce {
			queueInsert(sh, s, tx)
			return false
		}
		// Demote the current resident to the queue; the promote below
		// re-installs the (new) lowest nonce. Re-check popped under the
		// heap lock: a concurrent PopBatch may have just taken it.
		p.heapMu.Lock()
		if res.popped.Load() {
			p.heapMu.Unlock()
			queueInsert(sh, s, tx)
			return false
		}
		heap.Remove(&p.heap, res.index)
		p.heapMu.Unlock()
		delete(sh.resident, s)
		queueInsert(sh, s, res.tx)
	}
	queueInsert(sh, s, tx)
	return p.promote(sh, s)
}

func queueInsert(sh *senderShard, s types.Address, tx *types.Transaction) {
	q := sh.queues[s]
	i := sort.Search(len(q), func(i int) bool { return q[i].Nonce >= tx.Nonce })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = tx
	sh.queues[s] = q
}

// SetAbortAware switches the per-sender abort-EWMA demotion ordering on or
// off. Requeue counts are tracked either way; only the EWMA bookkeeping and
// the heap's tier comparison react to this flag. Items already resident in
// the heap keep their frozen tier until they are next re-pushed.
func (p *Pool) SetAbortAware(on bool) { p.abortAware.Store(on) }

// AgeAborts decays every sender's abort EWMA by factor — the proposer calls
// this once per block so demotion pressure fades with time as well as with
// successes (anti-starvation aging: a parked sender whose transactions never
// run still climbs back to tier 0 within a few blocks).
func (p *Pool) AgeAborts(factor float64) {
	if factor < 0 || factor >= 1 {
		return
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for s, e := range sh.abortEWMA {
			e *= factor
			if e < 0.05 {
				delete(sh.abortEWMA, s)
			} else {
				sh.abortEWMA[s] = e
			}
		}
		sh.mu.Unlock()
	}
}

// RequeueStat is one sender's requeue pressure for reporting.
type RequeueStat struct {
	Sender   types.Address `json:"sender"`
	Requeues uint64        `json:"requeues"`
	// Tier is the sender's current demotion tier (always 0 with abort-aware
	// ordering off).
	Tier uint8 `json:"tier"`
}

// TopRequeued returns the n most-requeued senders, highest count first.
func (p *Pool) TopRequeued(n int) []RequeueStat {
	var out []RequeueStat
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for s, r := range sh.requeues {
			out = append(out, RequeueStat{Sender: s, Requeues: r, Tier: p.tierOf(sh, s)})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requeues != out[j].Requeues {
			return out[i].Requeues > out[j].Requeues
		}
		return string(out[i].Sender[:]) < string(out[j].Sender[:])
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Pop removes and returns the highest-priced executable transaction, or nil
// if none is currently executable. The popped transaction's sender is
// blocked (its next nonce stays queued) until the caller settles the pop
// with Done or Requeue.
func (p *Pool) Pop() *types.Transaction {
	var buf [1]*types.Transaction
	if n := p.popBatch(buf[:]); n == 1 {
		return buf[0]
	}
	return nil
}

// PopBatch removes and returns up to n executable transactions (highest
// price first) under one heap-lock acquisition. Every returned transaction
// is from a distinct sender (the one-resident-per-sender invariant), and
// each must be settled with Done or Requeue. Returns nil when nothing is
// executable.
func (p *Pool) PopBatch(n int) []*types.Transaction {
	if n < 1 {
		n = 1
	}
	buf := make([]*types.Transaction, n)
	got := p.popBatch(buf)
	if got == 0 {
		return nil
	}
	telemetry.MempoolPopBatchSize.Observe(uint64(got))
	return buf[:got]
}

// popBatch fills buf with popped transactions and returns how many.
func (p *Pool) popBatch(buf []*types.Transaction) int {
	items := make([]*item, 0, len(buf))
	p.heapMu.Lock()
	for len(items) < len(buf) && p.heap.Len() > 0 {
		it := heap.Pop(&p.heap).(*item)
		it.popped.Store(true)
		items = append(items, it)
	}
	p.heapMu.Unlock()
	if len(items) == 0 {
		return 0
	}
	// Settle the sender shards: mark in flight, clear the resident pointer.
	for i, it := range items {
		s := it.tx.From
		sh := p.shardOf(s)
		sh.mu.Lock()
		sh.inFlight[s]++
		if sh.resident[s] == it {
			delete(sh.resident, s)
		}
		sh.mu.Unlock()
		buf[i] = it.tx
	}
	p.count.Add(int64(-len(items)))
	telemetry.MempoolPending.Set(p.count.Load())
	return len(items)
}

// priceHeap orders items by demotion tier (ascending — tier 0 is normal
// traffic, demoted aborters sink below it), then gas price (descending),
// breaking ties by nonce (ascending) then hash so the order is
// deterministic. Tiers are frozen at push time, so Less stays static per
// item while the sender's EWMA keeps moving.
type priceHeap []*item

func (h priceHeap) Len() int { return len(h) }

func (h priceHeap) Less(i, j int) bool {
	if h[i].tier != h[j].tier {
		return h[i].tier < h[j].tier
	}
	a, b := h[i].tx, h[j].tx
	switch a.GasPrice.Cmp(&b.GasPrice) {
	case 1:
		return true
	case -1:
		return false
	}
	if a.Nonce != b.Nonce {
		return a.Nonce < b.Nonce
	}
	ha, hb := a.Hash(), b.Hash()
	for k := 0; k < types.HashLength; k++ {
		if ha[k] != hb[k] {
			return ha[k] < hb[k]
		}
	}
	return false
}

func (h priceHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *priceHeap) Push(x any) {
	it := x.(*item)
	it.index = len(*h)
	*h = append(*h, it)
}

func (h *priceHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
