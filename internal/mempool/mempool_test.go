package mempool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockpilot/internal/types"
)

func tx(sender byte, nonce uint64, price uint64) *types.Transaction {
	t := &types.Transaction{
		Nonce: nonce,
		From:  types.BytesToAddress([]byte{sender}),
		To:    types.BytesToAddress([]byte{0xff}),
		Gas:   21000,
	}
	t.GasPrice.SetUint64(price)
	return t
}

// popDone pops and immediately settles, for tests that don't exercise the
// in-flight blocking.
func popDone(p *Pool) *types.Transaction {
	got := p.Pop()
	if got != nil {
		p.Done(got)
	}
	return got
}

func TestPopByPrice(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 10))
	p.Add(tx(2, 0, 30))
	p.Add(tx(3, 0, 20))
	for _, want := range []uint64{30, 20, 10} {
		got := popDone(p)
		if got == nil || got.GasPrice.Uint64() != want {
			t.Fatalf("pop price = %v, want %d", got, want)
		}
	}
	if p.Pop() != nil {
		t.Fatal("empty pool popped non-nil")
	}
}

func TestNonceOrderingPerSender(t *testing.T) {
	p := New()
	// Higher nonce carries a higher price, but must not pop first.
	p.Add(tx(1, 1, 100))
	p.Add(tx(1, 0, 1))
	first := popDone(p)
	if first.Nonce != 0 {
		t.Fatalf("popped nonce %d first", first.Nonce)
	}
	second := popDone(p)
	if second.Nonce != 1 {
		t.Fatalf("popped nonce %d second", second.Nonce)
	}
}

func TestOutOfOrderAdd(t *testing.T) {
	p := New()
	p.Add(tx(1, 2, 5))
	p.Add(tx(1, 0, 5))
	p.Add(tx(1, 1, 5))
	for want := uint64(0); want < 3; want++ {
		got := popDone(p)
		if got == nil || got.Nonce != want {
			t.Fatalf("pop = %v, want nonce %d", got, want)
		}
	}
}

// TestInFlightBlocksSuccessor is the property the OCC-WSI engine relies on:
// while a sender's transaction is popped but unsettled, the sender's next
// nonce must not become executable (it could only fail the nonce check).
func TestInFlightBlocksSuccessor(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 10))
	p.Add(tx(1, 1, 10))
	a := p.Pop()
	if a.Nonce != 0 {
		t.Fatal("setup")
	}
	if got := p.Pop(); got != nil {
		t.Fatalf("successor nonce %d popped while predecessor in flight", got.Nonce)
	}
	p.Done(a)
	if got := p.Pop(); got == nil || got.Nonce != 1 {
		t.Fatalf("successor not released after Done: %v", got)
	}
}

func TestInterleavedSenders(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 10))
	p.Add(tx(1, 1, 50)) // queued behind nonce 0
	p.Add(tx(2, 0, 20))
	// Executable set is {s1/n0 @10, s2/n0 @20}: s2 first.
	if got := popDone(p); got.From != types.BytesToAddress([]byte{2}) {
		t.Fatalf("first pop from %v", got.From)
	}
	if got := popDone(p); got.Nonce != 0 {
		t.Fatalf("second pop nonce %d", got.Nonce)
	}
	if got := popDone(p); got.Nonce != 1 || got.GasPrice.Uint64() != 50 {
		t.Fatalf("third pop = %+v", got)
	}
}

func TestRequeueReleasesChain(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 10))
	p.Add(tx(1, 1, 99))
	a := p.Pop()
	p.Requeue(a)
	b := p.Pop()
	if b.Nonce != 0 {
		t.Fatalf("pop after requeue = %d", b.Nonce)
	}
	p.Done(b)
	c := p.Pop()
	if c == nil || c.Nonce != 1 {
		t.Fatalf("chain successor = %v", c)
	}
	p.Done(c)
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestLenAccounting(t *testing.T) {
	p := New()
	for i := uint64(0); i < 5; i++ {
		p.Add(tx(1, i, 5))
	}
	if p.Len() != 5 {
		t.Fatalf("Len = %d", p.Len())
	}
	x := p.Pop()
	if p.Len() != 4 {
		t.Fatalf("Len after pop = %d", p.Len())
	}
	p.Requeue(x)
	if p.Len() != 5 {
		t.Fatalf("Len after requeue = %d", p.Len())
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	build := func() []uint64 {
		p := New()
		for s := byte(1); s <= 10; s++ {
			p.Add(tx(s, 0, 7)) // all same price
		}
		var order []uint64
		for {
			got := popDone(p)
			if got == nil {
				break
			}
			w := got.From.Word()
			order = append(order, w.Uint64())
		}
		return order
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-break order not deterministic")
		}
	}
}

func TestConcurrentPopAll(t *testing.T) {
	p := New()
	const n = 2000
	for s := byte(0); s < 100; s++ {
		for nonce := uint64(0); nonce < n/100; nonce++ {
			p.Add(tx(s+1, nonce, uint64(s)*3+nonce))
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[types.Hash]bool)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			misses := 0
			for {
				got := p.Pop()
				if got == nil {
					// Another worker may still settle a sender and unblock
					// more txs; spin a little before giving up.
					misses++
					if misses > 1000 && p.Len() == 0 {
						return
					}
					continue
				}
				misses = 0
				mu.Lock()
				if seen[got.Hash()] {
					t.Error("duplicate pop")
				}
				seen[got.Hash()] = true
				mu.Unlock()
				p.Done(got)
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("popped %d, want %d", len(seen), n)
	}
}

func TestReplacementByPriceBump(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 100))

	// Underpriced replacement (same nonce, +5% < +10%) is rejected.
	under := tx(1, 0, 105)
	if err := p.Add(under); err == nil {
		t.Fatal("underpriced replacement accepted")
	}
	// Sufficient bump replaces the resident.
	better := tx(1, 0, 110)
	if err := p.Add(better); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d after replacement", p.Len())
	}
	got := popDone(p)
	if got.GasPrice.Uint64() != 110 {
		t.Fatalf("popped price %d, want the replacement", got.GasPrice.Uint64())
	}
	if p.Pop() != nil {
		t.Fatal("old transaction still pending")
	}
}

func TestReplacementInQueue(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 50))
	p.Add(tx(1, 1, 10)) // queued behind nonce 0
	if err := p.Add(tx(1, 1, 10)); err == nil {
		t.Fatal("queued same-price replacement accepted")
	}
	if err := p.Add(tx(1, 1, 20)); err != nil {
		t.Fatal(err)
	}
	popDone(p) // n0
	got := popDone(p)
	if got.Nonce != 1 || got.GasPrice.Uint64() != 20 {
		t.Fatalf("queued replacement not applied: %+v", got)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
}

// TestPopBatchEquivalence: a PopBatch(1) drain must reproduce the Pop drain
// order exactly, and larger batches must drain the same transaction set.
// (Batches larger than 1 legitimately produce a different global order: a
// batch claims the executable frontier before any settle, so a sender's
// successor cannot ride in the same batch even if it outprices other
// senders' heads — Pop+Done promotes it between pops.)
func TestPopBatchEquivalence(t *testing.T) {
	build := func() *Pool {
		p := New()
		for s := byte(1); s <= 20; s++ {
			for n := uint64(0); n < 5; n++ {
				p.Add(tx(s, n, uint64(s)*7+n*3))
			}
		}
		return p
	}
	drain := func(p *Pool, batch int) []types.Hash {
		var order []types.Hash
		for {
			var got []*types.Transaction
			if batch == 0 { // plain Pop reference
				one := p.Pop()
				if one != nil {
					got = []*types.Transaction{one}
				}
			} else {
				got = p.PopBatch(batch)
			}
			if len(got) == 0 {
				break
			}
			for _, x := range got {
				order = append(order, x.Hash())
			}
			p.DoneBatch(got)
		}
		return order
	}
	ref := drain(build(), 0)
	one := drain(build(), 1)
	if len(one) != len(ref) {
		t.Fatalf("PopBatch(1) drained %d txs, Pop drained %d", len(one), len(ref))
	}
	for i := range ref {
		if one[i] != ref[i] {
			t.Fatalf("PopBatch(1) diverges from Pop order at position %d", i)
		}
	}
	refSet := make(map[types.Hash]bool, len(ref))
	for _, h := range ref {
		refSet[h] = true
	}
	for _, batch := range []int{2, 4, 16} {
		got := drain(build(), batch)
		if len(got) != len(ref) {
			t.Fatalf("batch %d drained %d txs, want %d", batch, len(got), len(ref))
		}
		for i, h := range got {
			if !refSet[h] {
				t.Fatalf("batch %d drained unknown tx at position %d", batch, i)
			}
		}
	}
}

// TestPopBatchNonceOrder: across an entire batched drain, each sender's
// transactions must surface in strictly ascending nonce order, and one batch
// must never contain two transactions from one sender (the successor only
// becomes executable after the predecessor settles).
func TestPopBatchNonceOrder(t *testing.T) {
	p := New()
	const senders, noncesEach = 32, 8
	for s := byte(1); s <= senders; s++ {
		// Insert nonces out of order with adversarial prices (higher nonce,
		// higher price) to tempt the heap into reordering.
		for n := noncesEach - 1; n >= 0; n-- {
			p.Add(tx(s, uint64(n), uint64(100+n*10)))
		}
	}
	lastNonce := make(map[types.Address]int)
	total := 0
	for {
		got := p.PopBatch(6)
		if len(got) == 0 {
			break
		}
		inBatch := make(map[types.Address]bool)
		for _, x := range got {
			if inBatch[x.From] {
				t.Fatalf("two txs from %s in one batch", x.From)
			}
			inBatch[x.From] = true
			want, seen := lastNonce[x.From]
			if !seen {
				want = 0
			}
			if int(x.Nonce) != want {
				t.Fatalf("sender %s popped nonce %d, want %d", x.From, x.Nonce, want)
			}
			lastNonce[x.From] = want + 1
		}
		total += len(got)
		p.DoneBatch(got)
	}
	if total != senders*noncesEach {
		t.Fatalf("drained %d, want %d", total, senders*noncesEach)
	}
}

// TestRequeueBatch: a requeued batch must be fully poppable again with
// per-sender nonce order and price order intact (heap invariants survive).
func TestRequeueBatch(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 10))
	p.Add(tx(1, 1, 80))
	p.Add(tx(2, 0, 30))
	p.Add(tx(3, 0, 20))
	first := p.PopBatch(3) // s2@30, s3@20, s1/n0@10
	if len(first) != 3 {
		t.Fatalf("popped %d, want 3", len(first))
	}
	p.RequeueBatch(first)
	if p.Len() != 4 {
		t.Fatalf("Len after requeue = %d, want 4", p.Len())
	}
	// Same executable frontier again, in price order.
	for _, want := range []uint64{30, 20, 10} {
		got := popDone(p)
		if got == nil || got.GasPrice.Uint64() != want {
			t.Fatalf("post-requeue pop = %v, want price %d", got, want)
		}
	}
	// s1's nonce-1 unlocks only now.
	got := popDone(p)
	if got == nil || got.Nonce != 1 || got.GasPrice.Uint64() != 80 {
		t.Fatalf("chained successor = %+v", got)
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d", p.Len())
	}
}

// TestPopBatchConcurrent hammers batched claim/requeue/settle from many
// goroutines (run with -race): no duplicates, no losses, per-sender order.
func TestPopBatchConcurrent(t *testing.T) {
	p := New()
	const senders, noncesEach = 64, 16
	for s := 0; s < senders; s++ {
		for n := uint64(0); n < noncesEach; n++ {
			p.Add(tx(byte(s+1), n, uint64(s*3+int(n)%13)))
		}
	}
	var mu sync.Mutex
	seen := make(map[types.Hash]bool)
	lastNonce := make(map[types.Address]uint64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			misses := 0
			for {
				got := p.PopBatch(1 + w%4)
				if len(got) == 0 {
					misses++
					if misses > 1000 && p.Len() == 0 {
						return
					}
					continue
				}
				misses = 0
				// Occasionally requeue the tail to exercise RequeueBatch
				// under contention.
				settle := got
				if len(got) > 1 && w%2 == 0 {
					settle = got[:len(got)-1]
					p.RequeueBatch(got[len(got)-1:])
				}
				mu.Lock()
				for _, x := range settle {
					if seen[x.Hash()] {
						t.Error("duplicate settle")
					}
					seen[x.Hash()] = true
					if prev, ok := lastNonce[x.From]; ok && x.Nonce != prev+1 {
						t.Errorf("sender %s settled nonce %d after %d", x.From, x.Nonce, prev)
					}
					lastNonce[x.From] = x.Nonce
				}
				mu.Unlock()
				p.DoneBatch(settle)
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != senders*noncesEach {
		t.Fatalf("settled %d, want %d", len(seen), senders*noncesEach)
	}
}

// TestExecutableHook: the hook must fire when new work becomes executable
// (Add, Requeue, and Done-promotes-successor), never while pool locks are
// held (calling back into the pool must not deadlock).
func TestExecutableHook(t *testing.T) {
	p := New()
	var fires atomic.Int64
	p.SetExecutableHook(func() {
		fires.Add(1)
		_ = p.Executable() // reentrancy: must not deadlock
	})
	p.Add(tx(1, 0, 10))
	if fires.Load() == 0 {
		t.Fatal("hook did not fire on Add")
	}
	p.Add(tx(1, 1, 10)) // queued, not executable: no requirement either way
	a := p.Pop()
	base := fires.Load()
	p.Done(a) // promotes nonce 1 to executable
	if fires.Load() == base {
		t.Fatal("hook did not fire when Done promoted a successor")
	}
	b := p.Pop()
	base = fires.Load()
	p.Requeue(b)
	if fires.Load() == base {
		t.Fatal("hook did not fire on Requeue")
	}
	p.SetExecutableHook(nil)
	popDone(p)
}

// TestRequeueCountsAlwaysTracked: per-sender requeue counts accumulate with
// abort-aware ordering off (the default), so repeat aborters are observable
// without opting in to demotion (ISSUE 9 satellite).
func TestRequeueCountsAlwaysTracked(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 10))
	p.Add(tx(2, 0, 20))
	for i := 0; i < 3; i++ {
		got := p.Pop() // sender 2: higher price
		p.Requeue(got)
	}
	s2 := types.BytesToAddress([]byte{2})
	// Every sender with a requeue is listed: only sender 2, three times.
	top := p.TopRequeued(0)
	if len(top) != 1 || top[0].Sender != s2 || top[0].Requeues != 3 {
		t.Fatalf("TopRequeued = %+v, want sender 2 alone with 3", top)
	}
	if top[0].Tier != 0 {
		t.Fatalf("tier must stay 0 with abort-aware ordering off, got %d", top[0].Tier)
	}
	// Order must be untouched: sender 2 still pops first by price.
	if got := p.Pop(); got.From != s2 {
		t.Fatalf("requeue counting must not reorder pops, got sender %v", got.From)
	}
}

// TestAbortAwareDemotion: with abort-aware ordering on, a sender whose
// transactions repeatedly requeue sinks below a cheaper cold sender, and
// aging (AgeAborts) restores it.
func TestAbortAwareDemotion(t *testing.T) {
	p := New()
	p.SetAbortAware(true)
	p.Add(tx(1, 0, 100)) // hot aborter, best price
	p.Add(tx(2, 0, 1))   // cold, cheap

	// Drive sender 1's EWMA over the demotion threshold (each cycle pops
	// the current best; requeue re-inserts with the tier frozen at push).
	for i := 0; i < 4; i++ {
		got := p.Pop()
		if got.From != types.BytesToAddress([]byte{1}) {
			// Once demoted, the cold sender surfaces — stop churning it.
			p.Requeue(got)
			break
		}
		p.Requeue(got)
	}
	got := p.Pop()
	if got == nil || got.From != types.BytesToAddress([]byte{2}) {
		t.Fatalf("demoted aborter still outranks cold sender: got %+v", got)
	}
	p.Requeue(got)

	stats := p.TopRequeued(0)
	if len(stats) == 0 || stats[0].Sender != types.BytesToAddress([]byte{1}) || stats[0].Tier == 0 {
		t.Fatalf("aborter not demoted: %+v", stats)
	}

	// Anti-starvation: a few blocks of aging clear the tier, and the next
	// requeue cycle re-freezes tier 0 so price order rules again.
	for i := 0; i < 8; i++ {
		p.AgeAborts(0.5)
	}
	if s := p.TopRequeued(1); s[0].Tier != 0 {
		t.Fatalf("aging did not clear the tier: %+v", s)
	}
	// Tiers are frozen per heap item: drain both residents and requeue them
	// so they re-freeze at the recovered tier 0, then price order rules.
	both := p.PopBatch(2)
	if len(both) != 2 {
		t.Fatalf("expected both residents, got %d", len(both))
	}
	p.RequeueBatch(both)
	if got = p.Pop(); got.From != types.BytesToAddress([]byte{1}) {
		t.Fatalf("recovered sender must win by price again, got %v", got.From)
	}
}

// TestAbortAwareSuccessDecay: successful settles (Done) relax the EWMA too.
func TestAbortAwareSuccessDecay(t *testing.T) {
	p := New()
	p.SetAbortAware(true)
	p.Add(tx(1, 0, 10))
	// Two requeues: ewma = 1·0.8 + 1 = 1.8 < threshold → still tier 0.
	for i := 0; i < 2; i++ {
		p.Requeue(p.Pop())
	}
	if s := p.TopRequeued(1); s[0].Tier != 0 {
		t.Fatalf("sub-threshold EWMA demoted: %+v", s)
	}
	// One more requeue crosses it (1.8·0.8 + 1 = 2.44 ≥ 2).
	p.Requeue(p.Pop())
	if s := p.TopRequeued(1); s[0].Tier == 0 {
		t.Fatalf("threshold crossing did not demote: %+v", s)
	}
	// Successes melt it back below threshold.
	for i := 0; i < 3; i++ {
		p.Done(p.Pop())
		p.Add(tx(1, uint64(i+1), 10))
	}
	if s := p.TopRequeued(1); s[0].Tier != 0 {
		t.Fatalf("successful settles did not decay the EWMA: %+v", s)
	}
}

func BenchmarkPoolPopRequeue(b *testing.B) {
	p := New()
	for i := 0; i < 1000; i++ {
		p.Add(tx(byte(i%200), uint64(i/200), uint64(i%97)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got := p.Pop()
		if got == nil {
			b.Fatal("empty")
		}
		p.Requeue(got)
	}
}

// TestAddRacesPop races Add against the pops of the same senders: adders
// bring same-nonce replacements and lower nonces (each displacing the
// resident the poppers are taking), while poppers pop, requeue and settle.
// A sender's transactions are only requeued until its adder is finished, so
// its first resident, nonce low, stays pending while the nonces above it —
// queued behind it since before the pops began, so never in flight — are
// replaced. Each (sender, nonce) must settle exactly once, as the last
// transaction admitted for it; each sender's settled nonces must ascend by
// one; and the pool must drain.
func TestAddRacesPop(t *testing.T) {
	const senders, nonces, low = 16, 12, 6 // [low, nonces) are added up front
	price := func(n uint64) uint64 {
		if n > low {
			return 100 + n // replaced below
		}
		return 10 + n
	}
	p := New()
	for s := 0; s < senders; s++ {
		for n := uint64(low); n < nonces; n++ {
			p.Add(tx(byte(s+1), n, 10+n))
		}
	}
	var open [senders]atomic.Bool // the sender's adder is finished
	var adders sync.WaitGroup
	for a := 0; a < 2; a++ {
		adders.Add(1)
		go func(a int) {
			defer adders.Done()
			for s := a; s < senders; s += 2 {
				from := byte(s + 1)
				for n := uint64(low + 1); n < nonces; n++ {
					if err := p.Add(tx(from, n, price(n))); err != nil {
						t.Error(err)
					}
				}
				for n := low - 1; n >= 0; n-- {
					if err := p.Add(tx(from, uint64(n), price(uint64(n)))); err != nil {
						t.Error(err)
					}
				}
				open[s].Store(true)
			}
		}(a)
	}

	var mu sync.Mutex
	settled := make(map[types.Hash]bool)
	next := make(map[types.Address]uint64)
	deadline := time.Now().Add(30 * time.Second)
	var poppers sync.WaitGroup
	for w := 0; w < 4; w++ {
		poppers.Add(1)
		go func(w int) {
			defer poppers.Done()
			for time.Now().Before(deadline) {
				// Read the gates before the pop, so a transaction popped
				// before its adder finished is requeued, never settled.
				var gate [senders]bool
				all := true
				for i := range gate {
					gate[i] = open[i].Load()
					all = all && gate[i]
				}
				got := p.PopBatch(1 + w%3)
				if len(got) == 0 {
					if all && p.Len() == 0 {
						return
					}
					runtime.Gosched()
					continue
				}
				var done, again []*types.Transaction
				for _, x := range got {
					if gate[x.From[types.AddressLength-1]-1] {
						done = append(done, x)
					} else {
						again = append(again, x)
					}
				}
				mu.Lock()
				for _, x := range done {
					if settled[x.Hash()] {
						t.Errorf("sender %s nonce %d settled twice", x.From, x.Nonce)
					}
					settled[x.Hash()] = true
					if x.Nonce != next[x.From] {
						t.Errorf("sender %s settled nonce %d, want %d", x.From, x.Nonce, next[x.From])
					}
					next[x.From] = x.Nonce + 1
					if x.GasPrice.Uint64() != price(x.Nonce) {
						t.Errorf("sender %s nonce %d settled at price %d, want %d", x.From, x.Nonce, x.GasPrice.Uint64(), price(x.Nonce))
					}
				}
				mu.Unlock()
				p.RequeueBatch(again)
				p.DoneBatch(done)
			}
			t.Error("pool did not drain before the deadline")
		}(w)
	}
	adders.Wait()
	poppers.Wait()
	if len(settled) != senders*nonces {
		t.Fatalf("settled %d, want %d", len(settled), senders*nonces)
	}
	if p.Len() != 0 || p.Executable() != 0 {
		t.Fatalf("Len = %d, Executable = %d after the drain", p.Len(), p.Executable())
	}
}

// BenchmarkPoolPopRequeueParallel is BenchmarkPoolPopRequeue from every
// worker at once: each pops a batch of four, settles one, requeues the rest
// and re-admits the settled one so the pool never drains.
func BenchmarkPoolPopRequeueParallel(b *testing.B) {
	p := New()
	for i := 0; i < 1000; i++ {
		p.Add(tx(byte(i%200), uint64(i/200), uint64(i%97)))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			got := p.PopBatch(4)
			if len(got) == 0 {
				continue
			}
			p.Done(got[0])
			p.RequeueBatch(got[1:])
			p.Add(got[0])
		}
	})
}
