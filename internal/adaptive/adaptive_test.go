package adaptive

import (
	"fmt"
	"testing"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

func addr(b byte) types.Address {
	var a types.Address
	a[19] = b
	return a
}

// TestControllerHotSetLifecycle: aborts above minCount publish the sender
// and the conflicted key's owner as hot; decay drains them back out once
// the contention stops.
func TestControllerHotSetLifecycle(t *testing.T) {
	c := New(Config{})
	hotSender, hotAccount, cold := addr(1), addr(2), addr(3)

	if c.Hot() != nil {
		t.Fatalf("hot set must be nil before the first BlockStart")
	}
	for i := 0; i < 8; i++ {
		c.NoteAbort(hotSender, types.AccountKey(hotAccount), i%4)
	}
	c.BlockStart()

	hs := c.Hot()
	if hs == nil || len(hs.Accounts) != 2 {
		t.Fatalf("hot set = %+v, want {hotSender, hotAccount}", hs)
	}
	mk := func(from, to types.Address) *types.Transaction {
		return &types.Transaction{From: from, To: to}
	}
	if !c.IsHot(mk(hotSender, cold)) {
		t.Fatalf("tx from hot sender must be lane traffic")
	}
	if !c.IsHot(mk(cold, hotAccount)) {
		t.Fatalf("tx to hot account must be lane traffic")
	}
	if c.IsHot(mk(cold, cold)) {
		t.Fatalf("cold tx must stay in the parallel pool")
	}
	if !c.HotAccount(hotAccount) || c.HotAccount(cold) {
		t.Fatalf("HotAccount probe wrong")
	}

	// 8·0.5ⁿ drops below minCount=2 after 2 more blocks with no aborts.
	c.BlockStart()
	c.BlockStart()
	if hs := c.Hot(); len(hs.Accounts) != 0 {
		t.Fatalf("hot set should have drained, still holds %d accounts", len(hs.Accounts))
	}
	if c.IsHot(mk(hotSender, hotAccount)) {
		t.Fatalf("drained controller must stop diverting")
	}
}

// TestControllerMinCount: single-shot aborts never publish a hot set — a
// quiet workload runs exactly as with adaptive off.
func TestControllerMinCount(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 5; i++ {
		c.NoteAbort(addr(byte(10+i)), types.AccountKey(addr(byte(20+i))), -1)
	}
	c.BlockStart()
	if hs := c.Hot(); len(hs.Accounts) != 0 {
		t.Fatalf("one-off aborts below minCount published %d hot accounts", len(hs.Accounts))
	}
}

// TestControllerStorageKeyMarksContract: an abort attributed to a storage
// slot marks the *contract address* hot, so calls into it divert.
func TestControllerStorageKeyMarksContract(t *testing.T) {
	c := New(Config{})
	contract := addr(7)
	var slot types.Hash
	slot[31] = 1
	for i := 0; i < 4; i++ {
		c.NoteAbort(addr(byte(30+i)), types.StorageKey(contract, slot), 0)
	}
	c.BlockStart()
	if !c.HotAccount(contract) {
		t.Fatalf("storage-slot aborts must mark the owning contract hot")
	}
}

// TestCreditPoolCommutes: folding credits through the pool and materializing
// once must equal applying them serially in any order.
func TestCreditPoolCommutes(t *testing.T) {
	a, b := addr(40), addr(41)
	base := state.NewMemory(nil)
	base.SetBalance(a, uint256.NewInt(100))
	base.SetNonce(a, 7)

	p := NewCreditPool()
	serial := state.NewMemory(base)
	for i := uint64(1); i <= 10; i++ {
		v := uint256.NewInt(i)
		p.Add(a, v)
		p.Add(b, v)
		serial.AddBalance(a, v)
		serial.AddBalance(b, v)
	}
	cs := state.NewChangeSet()
	p.Materialize(base, cs)
	merged := state.NewMemory(base)
	merged.ApplyChangeSet(cs)
	for _, who := range []types.Address{a, b} {
		sa, _ := serial.Account(who)
		ma, _ := merged.Account(who)
		if !sa.Balance.Eq(&ma.Balance) {
			t.Fatalf("balance(%v): serial %s != merged %s", who, sa.Balance.String(), ma.Balance.String())
		}
	}
	if ma, _ := merged.Account(a); ma.Nonce != 7 {
		t.Fatalf("materialize must carry the nonce through, got %d", ma.Nonce)
	}
	again, none := state.NewChangeSet(), state.NewChangeSet()
	p.Materialize(base, again)
	NewCreditPool().Materialize(base, none)
	if len(again.Accounts) != 2 {
		t.Fatalf("materialize must be repeatable (pool unchanged)")
	}
	if len(none.Accounts) != 0 {
		t.Fatalf("empty pool must materialize to nil")
	}
}

// TestTxQueueOrder: the lane pops price-descending, nonce-ascending — the
// mempool's order on one thread.
func TestTxQueueOrder(t *testing.T) {
	var q TxQueue
	mk := func(price uint64, nonce uint64, seed byte) *types.Transaction {
		tx := &types.Transaction{From: addr(seed), Nonce: nonce, Gas: 21000}
		tx.GasPrice = *uint256.NewInt(price)
		return tx
	}
	q.Push(mk(5, 0, 1))
	q.Push(mk(9, 1, 2))
	q.Push(mk(9, 0, 3))
	q.Push(mk(1, 0, 4))
	if q.Len() != 4 {
		t.Fatalf("Len = %d", q.Len())
	}
	var got []string
	for tx := q.Pop(); tx != nil; tx = q.Pop() {
		got = append(got, fmt.Sprintf("%d/%d", tx.GasPrice.Uint64(), tx.Nonce))
	}
	want := []string{"9/0", "9/1", "5/0", "1/0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
	q.Push(mk(3, 0, 5))
	q.Push(mk(8, 0, 6))
	drained := q.Drain()
	if len(drained) != 2 || drained[0].GasPrice.Uint64() != 8 || q.Len() != 0 {
		t.Fatalf("drain returned %d txs, first price %d", len(drained), drained[0].GasPrice.Uint64())
	}
}

// TestSnapshotRender smoke-checks the bpinspect payload.
func TestSnapshotRender(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 4; i++ { // 4·Decay = minCount: just hot after one BlockStart
		c.NoteAbort(addr(1), types.AccountKey(addr(2)), 3)
	}
	c.BlockStart()
	c.NoteLaneTx()
	c.NoteMerge()
	s := c.Snapshot()
	if s.Blocks != 1 || s.AbortsSeen != 4 || s.LaneTxs != 1 || s.MergedCredits != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.HotAccounts == 0 || len(s.KeyRows) == 0 || len(s.SenderRows) == 0 {
		t.Fatalf("snapshot missing hot rows: %+v", s)
	}
	out := s.Render()
	if out == "" || len(out) < 40 {
		t.Fatalf("render too short: %q", out)
	}
}
