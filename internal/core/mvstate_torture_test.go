package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// balanceOf reads one balance through a Reader's Account.
func balanceOf(r state.Reader, a types.Address) uint256.Int {
	acct, _ := r.Account(a)
	return acct.Balance
}

// TestMVStateTorture hammers the multi-version state from many goroutines:
// writers race to commit versioned balance updates while readers pin
// snapshot versions and verify consistency rules. Run with -race.
func TestMVStateTorture(t *testing.T) {
	const accounts = 16
	const writers = 8
	const commitsPerWriter = 200

	g := state.NewGenesisBuilder()
	addrs := make([]types.Address, accounts)
	for i := range addrs {
		addrs[i] = types.BytesToAddress([]byte{byte(i + 1)})
		g.AddAccount(addrs[i], uint256.NewInt(0))
	}
	mv := NewMVState(g.Build())

	// Every committed version v sets exactly one account's balance to v.
	// Readers can then check: a pinned view's balance for any account is
	// ≤ the pinned version, and the account's own committed sequence is
	// monotone.
	var writersWG, readersWG sync.WaitGroup
	var aborts atomic.Int64
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < commitsPerWriter; i++ {
				addr := addrs[(w*commitsPerWriter+i)%accounts]
				for {
					v := mv.Version()
					view := mv.View(v)
					_ = balanceOf(view, addr) // snapshot read

					acc := types.NewAccessSet()
					acc.NoteRead(types.AccountKey(addr), v)
					acc.NoteWrite(types.AccountKey(addr))
					// Balance value = the version this commit will get; we
					// don't know it pre-commit, so write v+1 speculatively
					// and retry if another writer takes that slot first.
					cs := state.NewChangeSet(state.AccountChange{Addr: addr, Balance: *uint256.NewInt(uint64(v + 1))})
					got, _, ok := mv.TryCommit(acc, cs)
					if ok {
						_ = got
						break
					}
					aborts.Add(1)
				}
			}
		}(w)
	}

	// Readers run concurrently, verifying pinned-view stability.
	stop := make(chan struct{})
	var readerErr atomic.Value
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := mv.Version()
				view := mv.View(pin)
				for _, a := range addrs {
					b := balanceOf(view, a)
					if b.Uint64() > uint64(pin) {
						readerErr.Store("pinned view saw a future commit")
						return
					}
				}
				// Re-reading through the same pinned view later must give
				// identical values even as commits continue.
				again := mv.View(pin)
				for _, a := range addrs {
					b1 := balanceOf(view, a)
					b2 := balanceOf(again, a)
					if !b1.Eq(&b2) {
						readerErr.Store("pinned view not stable")
					}
				}
			}
		}()
	}

	// Wait for writers, then stop readers.
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if e := readerErr.Load(); e != nil {
		t.Fatal(e)
	}
	if got := mv.Version(); got != writers*commitsPerWriter {
		t.Fatalf("final version %d, want %d", got, writers*commitsPerWriter)
	}
	t.Logf("torture: %d commits, %d aborts", writers*commitsPerWriter, aborts.Load())

	// The flattened change set must reflect, per account, the LAST commit.
	flat := mv.Flatten()
	latest := mv.View(mv.Version())
	for _, a := range addrs {
		want := balanceOf(latest, a)
		got := flat.Account(a).Balance
		if !got.Eq(&want) {
			t.Fatalf("flatten diverges from latest view for %s", a)
		}
	}
}

// newMVStateStripes is NewMVState over a store of n lock stripes: the tortures
// below run 1, 4 and 64 (64 is the layout NewMVState builds).
func newMVStateStripes(base *state.Snapshot, n int) *MVState {
	return &MVState{base: base, store: state.NewVersionStore(n)}
}

// TestMVStateStripedTorture runs the torture workload across stripe
// configurations, with every commit spanning two accounts (and so, almost
// always, two stripes) plus a storage slot, to exercise multi-stripe lock
// acquisition, cross-stripe snapshot consistency, and the determinism
// property the proposer relies on: the version order returned by TryCommit
// IS the serialization order (commit order = version order). Run with -race.
func TestMVStateStripedTorture(t *testing.T) {
	for _, stripes := range []int{1, 4, 64} {
		stripes := stripes
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			tortureStripes(t, stripes)
		})
	}
}

func tortureStripes(t *testing.T, stripes int) {
	const accounts = 24
	const writers = 8
	const commitsPerWriter = 150
	slot := types.BytesToHash([]byte{0xAA})

	g := state.NewGenesisBuilder()
	addrs := make([]types.Address, accounts)
	for i := range addrs {
		addrs[i] = types.BytesToAddress([]byte{byte(i + 1)})
		g.AddAccount(addrs[i], uint256.NewInt(0))
	}
	mv := newMVStateStripes(g.Build(), stripes)

	// Each commit writes one value into the balance of TWO accounts and into
	// one storage slot of the first. Writers record every version TryCommit
	// hands out plus the value written; afterwards the versions must be
	// exactly 1..N (commit order = version order, no gaps, no duplicates),
	// and for every account the latest view must show the value written by
	// the commit with the LARGEST version that touched it (last writer in
	// version order wins, across stripes).
	type record struct {
		v    types.Version
		a, b int    // account indices written
		val  uint64 // balance/slot value written
	}
	recs := make([][]record, writers)
	var writersWG, readersWG sync.WaitGroup
	var aborts atomic.Int64
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for i := 0; i < commitsPerWriter; i++ {
				ai := rng.Intn(accounts)
				bi := (ai + 1 + rng.Intn(accounts-1)) % accounts
				for {
					v := mv.Version()
					view := mv.View(v)
					_ = balanceOf(view, addrs[ai])
					_ = view.Storage(addrs[ai], slot)

					acc := types.NewAccessSet()
					acc.NoteRead(types.AccountKey(addrs[ai]), v)
					acc.NoteWrite(types.AccountKey(addrs[ai]))
					acc.NoteWrite(types.AccountKey(addrs[bi]))
					acc.NoteWrite(types.StorageKey(addrs[ai], slot))
					// Speculative value: ≤ the version this commit will get
					// (commits that don't touch ai may slip in between, so it
					// can lag, but it can never exceed it).
					val := *uint256.NewInt(uint64(v + 1))
					cs := state.NewChangeSet(state.AccountChange{
						Addr:    addrs[ai],
						Balance: val,
						Slots:   []state.SlotChange{{Slot: slot, Val: val}},
					}, state.AccountChange{Addr: addrs[bi], Balance: val})
					got, _, ok := mv.TryCommit(acc, cs)
					if ok {
						recs[w] = append(recs[w], record{v: got, a: ai, b: bi, val: val.Uint64()})
						break
					}
					aborts.Add(1)
				}
			}
		}(w)
	}

	// Readers verify cross-stripe snapshot stability: a view pinned at v
	// must never show any balance or slot value > v, in any stripe.
	stop := make(chan struct{})
	var readerErr atomic.Value
	for r := 0; r < 4; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := mv.Version()
				view := mv.View(pin)
				for _, a := range addrs {
					if b := balanceOf(view, a); b.Uint64() > uint64(pin) {
						readerErr.Store("pinned view saw a future balance")
						return
					}
					if s := view.Storage(a, slot); s.Uint64() > uint64(pin) {
						readerErr.Store("pinned view saw a future slot write")
						return
					}
				}
			}
		}()
	}

	writersWG.Wait()
	close(stop)
	readersWG.Wait()
	if e := readerErr.Load(); e != nil {
		t.Fatal(e)
	}

	// Determinism: commit order = version order. Versions handed out are a
	// permutation of 1..N.
	total := writers * commitsPerWriter
	seen := make([]bool, total+1)
	type winner struct {
		v   types.Version
		val uint64
	}
	lastWriter := make(map[int]winner) // account index -> last commit touching it
	for _, wr := range recs {
		for _, rec := range wr {
			if rec.v < 1 || int(rec.v) > total || seen[rec.v] {
				t.Fatalf("version %d out of range or duplicated", rec.v)
			}
			seen[rec.v] = true
			if rec.v > lastWriter[rec.a].v {
				lastWriter[rec.a] = winner{rec.v, rec.val}
			}
			if rec.v > lastWriter[rec.b].v {
				lastWriter[rec.b] = winner{rec.v, rec.val}
			}
		}
	}
	if got := mv.Version(); got != types.Version(total) {
		t.Fatalf("final version %d, want %d", got, total)
	}

	// Last-writer-wins per account, across stripes: the latest view and the
	// flattened change set must both show the value of the max-version
	// commit that touched each account.
	latest := mv.View(mv.Version())
	flat := mv.Flatten()
	for i, a := range addrs {
		want := lastWriter[i].val
		if got := balanceOf(latest, a); got.Uint64() != want {
			t.Fatalf("account %d: latest balance %d, want last-writer value %d (version %d)",
				i, got.Uint64(), want, lastWriter[i].v)
		}
		if ac := flat.Account(a); ac == nil || ac.Balance.Uint64() != want {
			t.Fatalf("account %d: flatten diverges from last-writer value %d", i, want)
		}
	}
	t.Logf("stripes=%d: %d commits, %d aborts", stripes, total, aborts.Load())
}

// TestMVStateStripedVsSingleLock replays one deterministic commit sequence
// against a single-lock MVState and a striped one; the flattened change
// sets must be identical (striping must not change semantics, only lock
// granularity — the ablation the benchmarks compare).
func TestMVStateStripedVsSingleLock(t *testing.T) {
	build := func(stripes int) *state.ChangeSet {
		g := state.NewGenesisBuilder()
		addrs := make([]types.Address, 12)
		for i := range addrs {
			addrs[i] = types.BytesToAddress([]byte{byte(i + 1)})
			g.AddAccount(addrs[i], uint256.NewInt(1000))
		}
		mv := newMVStateStripes(g.Build(), stripes)
		rng := rand.New(rand.NewSource(42))
		slot := types.BytesToHash([]byte{0x55})
		for i := 0; i < 400; i++ {
			a := addrs[rng.Intn(len(addrs))]
			b := addrs[rng.Intn(len(addrs))]
			v := mv.Version()
			acc := types.NewAccessSet()
			acc.NoteRead(types.AccountKey(a), v)
			acc.NoteWrite(types.AccountKey(a))
			acc.NoteWrite(types.StorageKey(b, slot))
			ac := state.AccountChange{Addr: a, Balance: *uint256.NewInt(uint64(i))}
			bc := state.AccountChange{Addr: b, Balance: ac.Balance}
			if b != a {
				bc.Balance = balanceOf(mv.View(v), b) // keep b's scalars at their current value
			}
			bc.Slots = []state.SlotChange{{Slot: slot, Val: *uint256.NewInt(uint64(i * 3))}}
			cs := state.NewChangeSet(ac, bc)
			if _, _, ok := mv.TryCommit(acc, cs); !ok {
				t.Fatalf("serial commit %d aborted", i)
			}
		}
		return mv.Flatten()
	}
	single := build(1)
	striped := build(64)
	if len(single.Accounts) != len(striped.Accounts) {
		t.Fatalf("account count differs: %d vs %d", len(single.Accounts), len(striped.Accounts))
	}
	for _, sc := range single.Accounts {
		a := sc.Addr
		tc := striped.Account(a)
		if tc == nil || !tc.Balance.Eq(&sc.Balance) || tc.Nonce != sc.Nonce {
			t.Fatalf("account %s differs between single-lock and striped flatten", a)
		}
		if len(sc.Slots) != len(tc.Slots) {
			t.Fatalf("account %s storage size differs: %d vs %d", a, len(sc.Slots), len(tc.Slots))
		}
		for _, s := range sc.Slots {
			got, ok := tc.Slot(s.Slot)
			if !ok || !got.Eq(&s.Val) {
				t.Fatalf("slot %s/%s differs between single-lock and striped flatten", a, s.Slot)
			}
		}
	}
}

// TestExtensionTorture races snapshot extension against TryCommit across
// stripe configurations (run with -race): eight lanes, each with its bound
// view, run read-modify-write transactions over a small hot key space, with a
// yield between their first read and the rest so that nearly every execution
// meets a key rewritten since its snapshot. The shape is the one extension has
// to get right: a recorded read, then a blind SetState that caches an account
// without recording it, then — after the yield — a slot read that may
// re-base the execution, then a read of the cached account. Every commit keeps
// what it read; replayed in version order on a plain map, each must have read
// exactly the state its predecessor left (serializability: an extension that
// moved past a value the overlay held would commit a read nobody can place),
// and the flattened store must equal the replay's final state.
func TestExtensionTorture(t *testing.T) {
	for _, stripes := range []int{1, 4, 64} {
		stripes := stripes
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			tortureExtension(t, stripes)
		})
	}
}

func tortureExtension(t *testing.T, stripes int) {
	const accounts = 6
	const lanes = 8
	const commitsPerLane = 150
	slot := types.BytesToHash([]byte{0xAA})

	g := state.NewGenesisBuilder()
	addrs := make([]types.Address, accounts)
	for i := range addrs {
		addrs[i] = types.BytesToAddress([]byte{byte(i + 1)})
		g.AddAccount(addrs[i], uint256.NewInt(uint64(i)))
	}
	mv := newMVStateStripes(g.Build(), stripes)

	type record struct {
		v          types.Version
		r1, r2, w  int
		bal1       uint64 // balance of r1, the first read
		slot2      uint64 // slot of r2, read after the yield
		balW       uint64 // balance of w, cached by the blind SetState before the yield
		newBal     uint64
		newSlot    uint64
		readsStamp types.Version
	}
	recs := make([][]record, lanes)
	var wg sync.WaitGroup
	var aborts, extended atomic.Int64
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(l)*104729 + 7))
			view := mv.bind(0, l, 1)
			o := view.overlay
			tx := &types.Transaction{From: addrs[0]}
			for i := 0; i < commitsPerLane; i++ {
				w := rng.Intn(accounts)
				r1 := (w + 1 + rng.Intn(accounts-1)) % accounts
				r2 := (w + 1 + rng.Intn(accounts-1)) % accounts
				for {
					view.begin(tx)
					pinned := o.Version()
					bal1 := o.GetBalance(addrs[r1])
					o.SetState(addrs[w], slot, *uint256.NewInt(1)) // caches w, records no read
					runtime.Gosched()
					slot2 := o.GetState(addrs[r2], slot) // may extend
					balW := o.GetBalance(addrs[w])       // the cached value, stamped with the overlay's version
					rec := record{
						r1: r1, r2: r2, w: w,
						bal1: bal1.Uint64(), slot2: slot2.Uint64(), balW: balW.Uint64(),
					}
					rec.newBal = rec.bal1*31 + rec.slot2*17 + rec.balW + 1
					rec.newSlot = rec.newBal ^ uint64(l)<<32
					o.SetBalance(addrs[w], uint256.NewInt(rec.newBal))
					o.SetState(addrs[w], slot, *uint256.NewInt(rec.newSlot))
					rec.readsStamp = o.Version()
					for key, stamp := range o.Access().Reads {
						if stamp != rec.readsStamp {
							t.Errorf("read of %s stamped %d in an overlay at %d", key, stamp, rec.readsStamp)
						}
					}
					var ok bool
					if rec.v, _, ok = mv.TryCommit(o.Access(), o.ChangeSet()); ok {
						if rec.readsStamp != pinned {
							extended.Add(1)
						}
						recs[l] = append(recs[l], rec)
						break
					}
					aborts.Add(1)
				}
			}
		}(l)
	}

	// Pinned views race the lanes: no overlay, so they never move.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := mv.Version()
				view := mv.View(pin)
				first := make([]uint256.Int, accounts)
				for i, a := range addrs {
					first[i] = view.Storage(a, slot)
				}
				runtime.Gosched()
				for i, a := range addrs {
					if again := view.Storage(a, slot); !again.Eq(&first[i]) {
						t.Errorf("pinned view at %d moved: slot of account %d read %s then %s", pin, i, first[i].String(), again.String())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	total := lanes * commitsPerLane
	order := make([]*record, total+1)
	for l := range recs {
		for i := range recs[l] {
			rec := &recs[l][i]
			if rec.v < 1 || int(rec.v) > total || order[rec.v] != nil {
				t.Fatalf("version %d out of range or duplicated", rec.v)
			}
			if rec.readsStamp >= rec.v {
				t.Fatalf("version %d committed reads stamped %d", rec.v, rec.readsStamp)
			}
			order[rec.v] = rec
		}
	}
	bal, slots := make([]uint64, accounts), make([]uint64, accounts)
	for i := range bal {
		bal[i] = uint64(i)
	}
	for v := 1; v <= total; v++ {
		rec := order[v]
		if rec == nil {
			t.Fatalf("version %d missing", v)
		}
		if bal[rec.r1] != rec.bal1 || slots[rec.r2] != rec.slot2 || bal[rec.w] != rec.balW {
			t.Fatalf("version %d (reads stamped %d) is not serializable: read balance[%d]=%d slot[%d]=%d balance[%d]=%d, the state after version %d has %d, %d, %d",
				v, rec.readsStamp, rec.r1, rec.bal1, rec.r2, rec.slot2, rec.w, rec.balW, v-1, bal[rec.r1], slots[rec.r2], bal[rec.w])
		}
		bal[rec.w], slots[rec.w] = rec.newBal, rec.newSlot
	}
	flat := mv.Flatten()
	for i, a := range addrs {
		ch := flat.Account(a)
		if ch == nil {
			if bal[i] != uint64(i) || slots[i] != 0 {
				t.Fatalf("account %d: written in the replay, absent from the flattened store", i)
			}
			continue
		}
		if got, _ := ch.Slot(slot); ch.Balance.Uint64() != bal[i] || got.Uint64() != slots[i] {
			t.Fatalf("account %d: flattened (%d, %d), replay (%d, %d)", i, ch.Balance.Uint64(), got.Uint64(), bal[i], slots[i])
		}
	}
	if extended.Load() == 0 {
		t.Fatalf("no commit of %d rode an extended snapshot: the schedule no longer exercises extension", total)
	}
	t.Logf("stripes=%d: %d commits, %d of them on an extended snapshot, %d aborts", stripes, total, extended.Load(), aborts.Load())
}
