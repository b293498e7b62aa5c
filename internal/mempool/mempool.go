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
// The pool is safe for concurrent use by the proposer's worker threads. One
// mutex guards the price heap and all per-sender bookkeeping (nonce queue,
// in-flight count, resident pointer, abort pressure), so a pop marks its
// sender in flight in the same critical section that takes it off the heap.
// PopBatch/RequeueBatch/DoneBatch amortize one lock acquisition over several
// transactions (Pop is PopBatch(1), Requeue and Done the one-element batches).
// The pool costs about 2 µs of a transaction's 150 µs of EVM time, so the
// lock is not where a block's time goes (docs/PERFORMANCE.md, "One-lock
// mempool").
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

// Pool is a concurrent pending-transaction pool.
type Pool struct {
	mu    sync.Mutex
	heap  priceHeap
	count int

	queues   map[types.Address][]*types.Transaction // nonce-sorted backlog
	inFlight map[types.Address]int                  // taken by a pop, neither Done nor Requeued
	resident map[types.Address]*item                // the sender's heap entry
	// requeues counts lifetime requeue (abort-retry) events per sender —
	// always tracked, so repeated aborters are observable even with the
	// abort-aware ordering off.
	requeues map[types.Address]uint64
	// abortEWMA is the decaying abort pressure per sender; only maintained
	// while abort-aware ordering is on.
	abortEWMA map[types.Address]float64

	// abortAware switches the per-sender demotion-tier ordering on. Set by
	// the proposer when the adaptive controller runs with demotion enabled.
	abortAware bool

	// executableHook, when set, is invoked (outside the pool lock) after an
	// operation makes a transaction executable (a heap push). The proposer
	// points it at its idle-worker wakeup.
	executableHook atomic.Pointer[func()]
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{
		queues:    make(map[types.Address][]*types.Transaction),
		inFlight:  make(map[types.Address]int),
		resident:  make(map[types.Address]*item),
		requeues:  make(map[types.Address]uint64),
		abortEWMA: make(map[types.Address]float64),
	}
}

// SetExecutableHook installs (or, with nil, removes) the became-executable
// callback. The hook runs outside the pool lock; it must be cheap and must
// not call back into the pool's write paths.
func (p *Pool) SetExecutableHook(f func()) {
	if f == nil {
		p.executableHook.Store(nil)
		return
	}
	p.executableHook.Store(&f)
}

// notifyExecutable fires the hook, if any. Called with the lock released.
func (p *Pool) notifyExecutable() {
	if f := p.executableHook.Load(); f != nil {
		(*f)()
	}
}

// Len returns the number of transactions currently held.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}

// Executable returns how many transactions are immediately poppable (the
// price-heap size): at most one per pending sender.
func (p *Pool) Executable() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.heap.Len()
}

// addCount adds d to the held-transaction count and publishes it (lock held).
func (p *Pool) addCount(d int) {
	p.count += d
	telemetry.MempoolPending.Set(int64(p.count))
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
	p.mu.Lock()
	if matched, err := p.replace(tx); matched {
		p.mu.Unlock()
		if err != nil {
			return err
		}
		p.notifyExecutable() // the replacement is pending in its place
		return nil
	}
	p.addCount(1)
	pushed := p.insert(tx)
	p.mu.Unlock()
	trace.Admit(tx)
	if pushed {
		p.notifyExecutable()
	}
	return nil
}

// replace handles a same-(sender, nonce) replacement (lock held). It reports
// whether a pending transaction matched; the error is ErrReplaceUnderpriced
// when the match was kept because tx does not outbid it.
func (p *Pool) replace(tx *types.Transaction) (bool, error) {
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
	if res := p.resident[s]; res != nil && res.tx.Nonce == tx.Nonce {
		if !bumpOK(res.tx) {
			return true, ErrReplaceUnderpriced
		}
		res.tx, res.tier = tx, p.tierOf(s)
		heap.Fix(&p.heap, res.index)
		telemetry.MempoolReplacements.Inc()
		return true, nil
	}
	q := p.queues[s]
	for i, old := range q {
		if old.Nonce != tx.Nonce {
			continue
		}
		if !bumpOK(old) {
			return true, ErrReplaceUnderpriced
		}
		q[i] = tx
		telemetry.MempoolReplacements.Inc()
		return true, nil
	}
	return false, nil
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
func (p *Pool) Requeue(tx *types.Transaction) { p.RequeueBatch([]*types.Transaction{tx}) }

// RequeueBatch returns several aborted transactions under one lock
// acquisition, signalling waiters once.
func (p *Pool) RequeueBatch(txs []*types.Transaction) {
	if len(txs) == 0 {
		return
	}
	pushed := false
	p.mu.Lock()
	for _, tx := range txs {
		s := tx.From
		p.requeues[s]++
		if p.abortAware {
			before := p.abortEWMA[s]
			after := before*abortAlpha + 1
			p.abortEWMA[s] = after
			if abortTierFor(before) == 0 && abortTierFor(after) > 0 {
				telemetry.AdaptiveDemotedSenders.Inc()
			}
		}
		p.decInFlight(s)
		if p.insert(tx) {
			pushed = true
		}
	}
	p.addCount(len(txs))
	p.mu.Unlock()
	if pushed {
		p.notifyExecutable()
	}
}

// Done reports that a transaction taken by a pop is finished for good
// (committed or permanently dropped), unblocking the sender's next nonce.
func (p *Pool) Done(tx *types.Transaction) { p.DoneBatch([]*types.Transaction{tx}) }

// DoneBatch settles several taken transactions under one lock acquisition,
// signalling waiters once.
func (p *Pool) DoneBatch(txs []*types.Transaction) {
	pushed := false
	p.mu.Lock()
	for _, tx := range txs {
		s := tx.From
		if e, ok := p.abortEWMA[s]; ok {
			p.decayAbort(s, e*abortAlpha)
		}
		p.decInFlight(s)
		if p.promote(s) {
			pushed = true
		}
	}
	p.mu.Unlock()
	if pushed {
		p.notifyExecutable()
	}
}

// decayAbort sets the sender's abort EWMA to e (lock held); a drained entry
// is deleted so the map tracks only pressure.
func (p *Pool) decayAbort(s types.Address, e float64) {
	if e < 0.05 {
		delete(p.abortEWMA, s)
	} else {
		p.abortEWMA[s] = e
	}
}

// tierOf returns the sender's current demotion tier (lock held).
func (p *Pool) tierOf(s types.Address) uint8 {
	if !p.abortAware {
		return 0
	}
	return abortTierFor(p.abortEWMA[s])
}

func (p *Pool) decInFlight(s types.Address) {
	if n := p.inFlight[s]; n <= 1 {
		delete(p.inFlight, s)
	} else {
		p.inFlight[s] = n - 1
	}
}

// promote moves the sender's queue head into the heap when the sender has
// no in-flight transaction and no resident (lock held). Reports whether a
// heap push happened.
func (p *Pool) promote(s types.Address) bool {
	if p.inFlight[s] > 0 || p.resident[s] != nil {
		return false
	}
	q := p.queues[s]
	if len(q) == 0 {
		return false
	}
	if len(q) == 1 {
		delete(p.queues, s)
	} else {
		p.queues[s] = q[1:]
	}
	it := &item{tx: q[0], tier: p.tierOf(s)}
	heap.Push(&p.heap, it)
	p.resident[s] = it
	return true
}

// insert places tx into the sender's pending set (lock held): the tx joins
// the nonce queue, a resident that it displaces is demoted, and the lowest
// queued nonce is promoted into the heap when the sender is unblocked.
// Reports whether a heap push happened.
func (p *Pool) insert(tx *types.Transaction) bool {
	s := tx.From
	// A sender in flight has no resident, and promote gives it none.
	if res := p.resident[s]; res != nil {
		if tx.Nonce >= res.tx.Nonce {
			p.queueInsert(tx)
			return false
		}
		// Demote the current resident to the queue; the promote below
		// re-installs the (new) lowest nonce.
		heap.Remove(&p.heap, res.index)
		delete(p.resident, s)
		p.queueInsert(res.tx)
	}
	p.queueInsert(tx)
	return p.promote(s)
}

func (p *Pool) queueInsert(tx *types.Transaction) {
	q := p.queues[tx.From]
	i := sort.Search(len(q), func(i int) bool { return q[i].Nonce >= tx.Nonce })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = tx
	p.queues[tx.From] = q
}

// SetAbortAware switches the per-sender abort-EWMA demotion ordering on or
// off. Requeue counts are tracked either way; only the EWMA bookkeeping and
// the heap's tier comparison react to this flag. Items already resident in
// the heap keep their frozen tier until they are next re-pushed.
func (p *Pool) SetAbortAware(on bool) {
	p.mu.Lock()
	p.abortAware = on
	p.mu.Unlock()
}

// AgeAborts decays every sender's abort EWMA by factor — the proposer calls
// this once per block so demotion pressure fades with time as well as with
// successes (anti-starvation aging: a parked sender whose transactions never
// run still climbs back to tier 0 within a few blocks).
func (p *Pool) AgeAborts(factor float64) {
	if factor < 0 || factor >= 1 {
		return
	}
	p.mu.Lock()
	for s, e := range p.abortEWMA {
		p.decayAbort(s, e*factor)
	}
	p.mu.Unlock()
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
	p.mu.Lock()
	for s, r := range p.requeues {
		out = append(out, RequeueStat{Sender: s, Requeues: r, Tier: p.tierOf(s)})
	}
	p.mu.Unlock()
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
// if none is currently executable. The returned transaction's sender is
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
// price first) under one lock acquisition. Every returned transaction
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

// popBatch fills buf with transactions off the heap and returns how many.
// Each sender leaves the heap and enters flight in one critical section.
func (p *Pool) popBatch(buf []*types.Transaction) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(buf) && p.heap.Len() > 0 {
		tx := heap.Pop(&p.heap).(*item).tx
		p.inFlight[tx.From]++
		delete(p.resident, tx.From)
		buf[n] = tx
		n++
	}
	if n > 0 {
		p.addCount(-n)
	}
	return n
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
