package state

import (
	"math/rand"
	"testing"

	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

func addr(b byte) types.Address { return types.BytesToAddress([]byte{b}) }
func slot(b byte) types.Hash    { return types.BytesToHash([]byte{b}) }
func u(v uint64) *uint256.Int   { return uint256.NewInt(v) }

func TestGenesisAndReads(t *testing.T) {
	g := NewGenesisBuilder()
	g.AddAccount(addr(1), u(1000))
	g.AddContract(addr(2), u(0), []byte{0x60, 0x00}, map[types.Hash]uint256.Int{slot(1): *u(42)})
	s := g.Build()

	if b := s.Balance(addr(1)); !b.Eq(u(1000)) {
		t.Fatalf("balance = %s", b.String())
	}
	if !s.Exists(addr(1)) || s.Exists(addr(9)) {
		t.Fatal("existence wrong")
	}
	if c := s.Code(addr(2)); len(c) != 2 {
		t.Fatalf("code = %x", c)
	}
	if v := s.Storage(addr(2), slot(1)); !v.Eq(u(42)) {
		t.Fatalf("storage = %s", v.String())
	}
	if v := s.Storage(addr(2), slot(2)); !v.IsZero() {
		t.Fatal("absent slot nonzero")
	}
	if s.CodeHash(addr(1)) != EmptyCodeHash {
		t.Fatal("EOA code hash")
	}
	if s.CodeHash(addr(9)) != (types.Hash{}) {
		t.Fatal("absent code hash")
	}
}

func TestCommitImmutability(t *testing.T) {
	s0 := NewGenesisBuilder().AddAccount(addr(1), u(100)).Build()
	root0 := s0.Root()

	cs := NewChangeSet(AccountChange{Addr: addr(1), Nonce: 1, Balance: *u(50)}, AccountChange{Addr: addr(2), Balance: *u(50)})
	s1 := s0.Commit(cs)

	if b := s0.Balance(addr(1)); !b.Eq(u(100)) {
		t.Fatal("parent snapshot mutated")
	}
	if s0.Root() != root0 {
		t.Fatal("parent root changed")
	}
	if b := s1.Balance(addr(1)); !b.Eq(u(50)) {
		t.Fatal("child missing update")
	}
	if s1.Nonce(addr(1)) != 1 {
		t.Fatal("nonce not committed")
	}
	if !s1.Exists(addr(2)) {
		t.Fatal("new account missing")
	}
	if s1.Root() == root0 {
		t.Fatal("root unchanged after commit")
	}
}

func TestCommitStorageAffectsRoot(t *testing.T) {
	s0 := NewGenesisBuilder().AddContract(addr(1), u(0), []byte{1}, nil).Build()
	cs := NewChangeSet(AccountChange{Addr: addr(1), Slots: []SlotChange{{Slot: slot(7), Val: *u(9)}}})
	s1 := s0.Commit(cs)
	if s1.Root() == s0.Root() {
		t.Fatal("storage change did not change root")
	}
	if v := s1.Storage(addr(1), slot(7)); !v.Eq(u(9)) {
		t.Fatal("storage not committed")
	}
	// Writing zero deletes the slot: root returns to the original.
	cs2 := NewChangeSet(AccountChange{Addr: addr(1), Slots: []SlotChange{{Slot: slot(7)}}})
	s2 := s1.Commit(cs2)
	if s2.Root() != s0.Root() {
		t.Fatal("zeroing slot did not restore root")
	}
}

func TestCommitDeterministicRoot(t *testing.T) {
	build := func(seed int64) types.Hash {
		r := rand.New(rand.NewSource(seed))
		s := NewSnapshot()
		for i := 0; i < 20; i++ {
			var accts []AccountChange
			for j := 0; j < 5; j++ {
				a := addr(byte(r.Intn(30)))
				accts = append(accts, AccountChange{
					Addr:    a,
					Nonce:   uint64(r.Intn(10)),
					Balance: *u(uint64(r.Intn(100000))),
					Slots:   []SlotChange{{Slot: slot(byte(r.Intn(8))), Val: *u(uint64(r.Intn(50)))}},
				})
			}
			s = s.Commit(NewChangeSet(accts...))
		}
		return s.Root()
	}
	if build(99) != build(99) {
		t.Fatal("same op sequence gave different roots")
	}
	if build(99) == build(100) {
		t.Fatal("different op sequences gave same root")
	}
}

func TestSnapshotCopyIndependence(t *testing.T) {
	s := NewGenesisBuilder().AddAccount(addr(1), u(10)).Build()
	c := s.Copy()
	s2 := c.Commit(NewChangeSet(AccountChange{Addr: addr(1), Balance: *u(99)}))
	if b := s.Balance(addr(1)); !b.Eq(u(10)) {
		t.Fatal("original affected by copy's commit")
	}
	if b := s2.Balance(addr(1)); !b.Eq(u(99)) {
		t.Fatal("commit through copy lost")
	}
}

func TestMemoryShadowing(t *testing.T) {
	base := NewGenesisBuilder().
		AddContract(addr(1), u(5), []byte{0xfe}, map[types.Hash]uint256.Int{slot(1): *u(11), slot(2): *u(22)}).
		Build()
	m := NewMemory(base)
	if a, _ := m.Account(addr(1)); !a.Balance.Eq(u(5)) || a.CodeHash != base.CodeHash(addr(1)) {
		t.Fatal("fall-through account")
	}
	m.SetStorage(addr(1), slot(1), *u(99))
	if v := m.Storage(addr(1), slot(1)); !v.Eq(u(99)) {
		t.Fatal("shadowed slot")
	}
	if v := m.Storage(addr(1), slot(2)); !v.Eq(u(22)) {
		t.Fatal("unshadowed slot must fall through")
	}
	m.AddBalance(addr(3), u(7))
	if a, ok := m.Account(addr(3)); !ok || !a.Balance.Eq(u(7)) || a.CodeHash != EmptyCodeHash {
		t.Fatal("AddBalance create")
	}
	if m.Code(addr(1))[0] != 0xfe {
		t.Fatal("code fall-through")
	}
}

func TestOverlayAccessRecording(t *testing.T) {
	base := NewGenesisBuilder().
		AddAccount(addr(1), u(100)).
		AddContract(addr(2), u(0), []byte{1}, map[types.Hash]uint256.Int{slot(1): *u(5)}).
		Build()
	o := NewOverlay(base, 7)

	o.GetBalance(addr(1))
	o.GetState(addr(2), slot(1))
	o.SetState(addr(2), slot(3), *u(9))
	o.AddBalance(addr(1), u(1))

	acc := o.Access()
	if v, ok := acc.Reads[types.AccountKey(addr(1))]; !ok || v != 7 {
		t.Fatalf("account read record: %v %v", v, ok)
	}
	if _, ok := acc.Reads[types.StorageKey(addr(2), slot(1))]; !ok {
		t.Fatal("storage read missing")
	}
	if _, ok := acc.Writes[types.StorageKey(addr(2), slot(3))]; !ok {
		t.Fatal("storage write missing")
	}
	if _, ok := acc.Writes[types.AccountKey(addr(1))]; !ok {
		t.Fatal("account write missing")
	}
	// Reading our own fresh write must not add a read record for that slot.
	if _, ok := acc.Reads[types.StorageKey(addr(2), slot(3))]; ok {
		t.Fatal("own-write read recorded as base read")
	}
	o.GetState(addr(2), slot(3))
	if _, ok := acc.Reads[types.StorageKey(addr(2), slot(3))]; ok {
		t.Fatal("own-write re-read recorded as base read")
	}
}

func TestOverlayRevert(t *testing.T) {
	base := NewGenesisBuilder().AddAccount(addr(1), u(100)).Build()
	o := NewOverlay(base, 0)

	o.SetNonce(addr(1), 1)
	snap := o.Snapshot()

	o.SetBalance(addr(1), u(50))
	o.SetState(addr(1), slot(1), *u(5))
	o.AddLog(&types.Log{Address: addr(1)})
	o.AddRefund(4800)
	o.SetCode(addr(3), []byte{0xaa})

	o.RevertToSnapshot(snap)

	if b := o.GetBalance(addr(1)); !b.Eq(u(100)) {
		t.Fatalf("balance after revert = %s", b.String())
	}
	if o.GetNonce(addr(1)) != 1 {
		t.Fatal("pre-snapshot write lost")
	}
	if v := o.GetState(addr(1), slot(1)); !v.IsZero() {
		t.Fatal("storage survived revert")
	}
	if len(o.Logs()) != 0 {
		t.Fatal("log survived revert")
	}
	if o.GetRefund() != 0 {
		t.Fatal("refund survived revert")
	}
	if o.GetCode(addr(3)) != nil {
		t.Fatal("code survived revert")
	}
	// The change set must reflect only surviving writes.
	cs := o.ChangeSet()
	if ch := cs.Account(addr(1)); ch == nil || ch.Nonce != 1 {
		t.Fatal("changeset missing surviving nonce write")
	}
	if cs.Account(addr(3)) != nil {
		t.Fatal("changeset contains reverted account")
	}
}

func TestOverlayNestedRevert(t *testing.T) {
	o := NewOverlay(nil, 0)
	o.SetState(addr(1), slot(1), *u(1))
	s1 := o.Snapshot()
	o.SetState(addr(1), slot(1), *u(2))
	s2 := o.Snapshot()
	o.SetState(addr(1), slot(1), *u(3))
	o.RevertToSnapshot(s2)
	if v := o.GetState(addr(1), slot(1)); !v.Eq(u(2)) {
		t.Fatalf("after inner revert = %s", v.String())
	}
	o.RevertToSnapshot(s1)
	if v := o.GetState(addr(1), slot(1)); !v.Eq(u(1)) {
		t.Fatalf("after outer revert = %s", v.String())
	}
}

func TestOverlayChangeSetRoundTrip(t *testing.T) {
	base := NewGenesisBuilder().
		AddAccount(addr(1), u(1000)).
		AddContract(addr(2), u(0), []byte{1, 2}, map[types.Hash]uint256.Int{slot(1): *u(5)}).
		Build()

	o := NewOverlay(base, 0)
	o.SubBalance(addr(1), u(300))
	o.SetNonce(addr(1), 1)
	o.AddBalance(addr(5), u(300))
	o.SetState(addr(2), slot(1), *u(6))
	o.SetState(addr(2), slot(9), *u(1))
	o.SetCode(addr(6), []byte{0xbe, 0xef})

	committed := base.Commit(o.ChangeSet())

	if b := committed.Balance(addr(1)); !b.Eq(u(700)) {
		t.Fatalf("balance = %s", b.String())
	}
	if committed.Nonce(addr(1)) != 1 {
		t.Fatal("nonce")
	}
	if b := committed.Balance(addr(5)); !b.Eq(u(300)) {
		t.Fatal("receiver")
	}
	if v := committed.Storage(addr(2), slot(1)); !v.Eq(u(6)) {
		t.Fatal("slot1")
	}
	if v := committed.Storage(addr(2), slot(9)); !v.Eq(u(1)) {
		t.Fatal("slot9")
	}
	if c := committed.Code(addr(6)); len(c) != 2 || c[0] != 0xbe {
		t.Fatal("code")
	}
	// Unrelated state untouched.
	if c := committed.Code(addr(2)); len(c) != 2 || c[0] != 1 {
		t.Fatal("existing code lost")
	}
}

func TestChangeSetMerge(t *testing.T) {
	a := NewChangeSet(AccountChange{Addr: addr(1), Nonce: 1, Balance: *u(10),
		Slots: []SlotChange{{Slot: slot(1), Val: *u(1)}}})
	b := NewChangeSet(AccountChange{Addr: addr(1), Nonce: 2, Balance: *u(20),
		Slots: []SlotChange{{Slot: slot(2), Val: *u(2)}}}, AccountChange{Addr: addr(3), Balance: *u(5)})

	a = Fold(a, b)
	ch := a.Account(addr(1))
	if ch.Nonce != 2 || !ch.Balance.Eq(u(20)) {
		t.Fatal("merge did not overwrite scalars")
	}
	if v, _ := ch.Slot(slot(1)); !v.Eq(u(1)) {
		t.Fatal("merge lost earlier slot")
	}
	if v, _ := ch.Slot(slot(2)); !v.Eq(u(2)) {
		t.Fatal("merge lost later slot")
	}
	if a.Account(addr(3)) == nil {
		t.Fatal("merge lost new account")
	}
}

func TestOverlayViewEqualsChangeSetOnMemory(t *testing.T) {
	// Property: for random write sequences, reading through the overlay
	// matches applying its ChangeSet to a Memory over the same base.
	r := rand.New(rand.NewSource(4))
	base := NewGenesisBuilder().AddAccount(addr(1), u(1e6)).Build()
	o := NewOverlay(base, 0)
	for i := 0; i < 500; i++ {
		a := addr(byte(r.Intn(10)))
		switch r.Intn(4) {
		case 0:
			o.AddBalance(a, u(uint64(r.Intn(100))))
		case 1:
			o.SetNonce(a, uint64(r.Intn(100)))
		case 2:
			o.SetState(a, slot(byte(r.Intn(5))), *u(uint64(r.Intn(1000))))
		case 3:
			o.GetState(a, slot(byte(r.Intn(5))))
		}
	}
	m := NewMemory(base)
	m.ApplyChangeSet(o.ChangeSet())
	for i := byte(0); i < 10; i++ {
		a := addr(i)
		ma, _ := m.Account(a)
		ob, mb := o.GetBalance(a), ma.Balance
		if !ob.Eq(&mb) {
			t.Fatalf("balance mismatch at %d: %s vs %s", i, ob.String(), mb.String())
		}
		if o.GetNonce(a) != ma.Nonce {
			t.Fatalf("nonce mismatch at %d", i)
		}
		for j := byte(0); j < 5; j++ {
			ov, mv := o.GetState(a, slot(j)), m.Storage(a, slot(j))
			if !ov.Eq(&mv) {
				t.Fatalf("slot mismatch at %d/%d", i, j)
			}
		}
	}
}

func TestForEachAccountAndTotals(t *testing.T) {
	s := NewGenesisBuilder().
		AddAccount(addr(1), u(100)).
		AddAccount(addr(2), u(200)).
		AddContract(addr(3), u(50), []byte{1}, nil).
		Build()
	if got := s.AccountCount(); got != 3 {
		t.Fatalf("AccountCount = %d", got)
	}
	total := s.TotalBalance()
	if !total.Eq(u(350)) {
		t.Fatalf("TotalBalance = %s", total.String())
	}
	// Early stop works.
	n := 0
	s.ForEachAccount(func(types.Hash, Account) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	// Contract account carries a non-empty code hash.
	sawContract := false
	s.ForEachAccount(func(_ types.Hash, a Account) bool {
		if a.CodeHash != EmptyCodeHash && a.CodeHash != (types.Hash{}) {
			sawContract = true
		}
		return true
	})
	if !sawContract {
		t.Fatal("no contract account visited")
	}
}

func BenchmarkSnapshotCommit(b *testing.B) {
	s := NewGenesisBuilder().AddAccount(addr(1), u(1e6)).Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = s.Commit(NewChangeSet(AccountChange{Addr: addr(byte(i % 200)), Balance: *u(uint64(i))}))
	}
}

func BenchmarkOverlayStorageAccess(b *testing.B) {
	base := NewGenesisBuilder().
		AddContract(addr(1), u(0), []byte{1}, map[types.Hash]uint256.Int{slot(1): *u(5)}).
		Build()
	o := NewOverlay(base, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.GetState(addr(1), slot(byte(i%16)))
	}
}
