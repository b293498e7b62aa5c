package state

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

func openStateDB(t *testing.T, cacheNodes int) *trie.Database {
	t.Helper()
	db, err := trie.OpenDatabase(filepath.Join(t.TempDir(), "state.db"), cacheNodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// diskRandChangeSet builds a change set over a small address pool so chained
// rounds produce overwrites, storage deletes (zero writes), code sets and
// accounts that are touched in many change sets — the messy shapes the
// parity property must hold under.
func diskRandChangeSet(r *rand.Rand, base *Snapshot, pool []types.Address) *ChangeSet {
	var accts []AccountChange
	scalars := make(map[types.Address]AccountChange) // an account's first write: later ones keep its nonce and balance
	n := 1 + r.Intn(12)
	for i := 0; i < n; i++ {
		addr := pool[r.Intn(len(pool))]
		ch, ok := scalars[addr]
		if !ok {
			ch = AccountChange{Addr: addr, Nonce: base.Nonce(addr) + 1}
			bal := base.Balance(addr)
			bal.Add(&bal, uint256.NewInt(uint64(1+r.Intn(1000))))
			ch.Balance = bal
			scalars[addr] = ch
		}
		switch r.Intn(4) {
		case 0: // balance/nonce only
		case 1: // set code (content varies so codeHash varies)
			ch.Code = []byte(fmt.Sprintf("code-%d-%d", r.Intn(4), r.Intn(4)))
			ch.CodeSet = true
		default: // touch 1..4 slots, ~1-in-4 a zero write (delete)
			for s := 0; s < 1+r.Intn(4); s++ {
				var slot types.Hash
				slot[0] = byte(r.Intn(6))
				var v uint256.Int
				if r.Intn(4) != 0 {
					v = *uint256.NewInt(uint64(1 + r.Intn(1<<20)))
				}
				ch.Slots = append(ch.Slots, SlotChange{Slot: slot, Val: v})
			}
		}
		accts = append(accts, ch)
	}
	return NewChangeSet(accts...) // folded: code sticks, slots form a union
}

// dumpAccounts materializes the full iterated account state.
func dumpAccounts(s *Snapshot) map[types.Hash]Account {
	out := map[types.Hash]Account{}
	s.ForEachAccount(func(h types.Hash, a Account) bool { out[h] = a; return true })
	return out
}

// dumpStorage materializes one account's full iterated slot state.
func dumpStorage(s *Snapshot, addr types.Address) map[types.Hash]uint256.Int {
	out := map[types.Hash]uint256.Int{}
	s.ForEachStorage(addr, func(h types.Hash, v uint256.Int) bool { out[h] = v; return true })
	return out
}

// TestDiskSnapshotParity (satellite of ISSUE 10): chained randomized change
// sets applied to the in-memory backend, a serial disk backend, and a
// 4-worker parallel disk backend must stay byte-identical — same root after
// every commit, and identical full iterated account and slot state at the
// end. Old disk roots are released as the chain advances, so flat-layer
// reads, trie fallback and pruning all run together.
func TestDiskSnapshotParity(t *testing.T) {
	r := rand.New(rand.NewSource(1001))
	pool := make([]types.Address, 24)
	for i := range pool {
		pool[i][0], pool[i][19] = byte(i), 0xAA
	}

	dbSerial := openStateDB(t, 256) // small cache: force store reads
	dbPar := openStateDB(t, 256)
	mem := NewSnapshot()
	serial := NewSnapshotDisk(dbSerial)
	par := NewSnapshotDisk(dbPar)
	var prevSerial, prevPar types.Hash

	for round := 0; round < 40; round++ {
		cs := diskRandChangeSet(r, mem, pool)
		mem = mem.Commit(cs)
		serial = serial.Commit(cs)
		par = par.CommitParallel(cs, 4)

		if mr, sr, pr := mem.Root(), serial.Root(), par.Root(); mr != sr || mr != pr {
			t.Fatalf("round %d: roots diverged: mem %x serial %x par %x", round, mr[:6], sr[:6], pr[:6])
		}
		// Prune the previous version: the live chain must not depend on it.
		if round > 0 {
			if err := dbSerial.Release([32]byte(prevSerial)); err != nil {
				t.Fatal(err)
			}
			if err := dbPar.Release([32]byte(prevPar)); err != nil {
				t.Fatal(err)
			}
		}
		prevSerial, prevPar = serial.Root(), par.Root()
	}

	// Full iterated account state, all three backends.
	memAccts := dumpAccounts(mem)
	for name, s := range map[string]*Snapshot{"serial": serial, "par": par} {
		got := dumpAccounts(s)
		if len(got) != len(memAccts) {
			t.Fatalf("%s: %d accounts, mem has %d", name, len(got), len(memAccts))
		}
		for h, a := range memAccts {
			if got[h] != a {
				t.Fatalf("%s: account %x mismatch: %+v vs %+v", name, h[:6], got[h], a)
			}
		}
	}

	// Full iterated slot state and point reads per address.
	for _, addr := range pool {
		memSlots := dumpStorage(mem, addr)
		for name, s := range map[string]*Snapshot{"serial": serial, "par": par} {
			got := dumpStorage(s, addr)
			if len(got) != len(memSlots) {
				t.Fatalf("%s/%x: %d slots, mem has %d", name, addr[:4], len(got), len(memSlots))
			}
			for h, v := range memSlots {
				if got[h] != v {
					t.Fatalf("%s/%x: slot %x mismatch", name, addr[:4], h[:6])
				}
			}
		}
		for slotByte := 0; slotByte < 6; slotByte++ {
			var slot types.Hash
			slot[0] = byte(slotByte)
			want := mem.Storage(addr, slot)
			if got := serial.Storage(addr, slot); got != want {
				t.Fatalf("serial point read %x/%d mismatch", addr[:4], slotByte)
			}
			if got := par.Storage(addr, slot); got != want {
				t.Fatalf("par point read %x/%d mismatch", addr[:4], slotByte)
			}
		}
		if mc, sc := mem.Code(addr), serial.Code(addr); string(mc) != string(sc) {
			t.Fatalf("code mismatch for %x", addr[:4])
		}
	}

	// Flat-vs-trie consistency: OpenSnapshot at the live root starts with NO
	// flat layers, so every read goes through the trie — answers must match
	// the flat-accelerated live snapshot exactly.
	reopened, err := OpenSnapshot(dbSerial, serial.Root())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Root() != serial.Root() {
		t.Fatal("reopened root mismatch")
	}
	for _, addr := range pool {
		if reopened.Nonce(addr) != serial.Nonce(addr) || reopened.Balance(addr) != serial.Balance(addr) {
			t.Fatalf("reopened account read diverges from flat for %x", addr[:4])
		}
		for slotByte := 0; slotByte < 6; slotByte++ {
			var slot types.Hash
			slot[0] = byte(slotByte)
			if reopened.Storage(addr, slot) != serial.Storage(addr, slot) {
				t.Fatalf("reopened slot read diverges from flat for %x/%d", addr[:4], slotByte)
			}
		}
	}

	// Aggregates.
	if mem.AccountCount() != serial.AccountCount() {
		t.Fatal("account count mismatch")
	}
	if mem.TotalBalance() != serial.TotalBalance() {
		t.Fatal("total balance mismatch")
	}
}

// TestDiskSnapshotReopenProcess persists a chain of commits, closes the
// database (dropping cache, flat layers and every in-memory handle), reopens
// the file, and resumes from the root — simulating a process restart.
func TestDiskSnapshotReopenProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.db")
	db, err := trie.OpenDatabase(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	pool := make([]types.Address, 8)
	for i := range pool {
		pool[i][0] = byte(i + 1)
	}
	mem := NewSnapshot()
	disk := NewSnapshotDisk(db)
	for round := 0; round < 10; round++ {
		cs := diskRandChangeSet(r, mem, pool)
		mem = mem.Commit(cs)
		disk = disk.Commit(cs)
	}
	root := disk.Root()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := trie.OpenDatabase(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	resumed, err := OpenSnapshot(db2, root)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Root() != mem.Root() {
		t.Fatal("resumed root differs from in-memory chain")
	}
	memAccts := dumpAccounts(mem)
	got := dumpAccounts(resumed)
	if len(got) != len(memAccts) {
		t.Fatalf("resumed has %d accounts, want %d", len(got), len(memAccts))
	}
	for h, a := range memAccts {
		if got[h] != a {
			t.Fatalf("resumed account %x mismatch", h[:6])
		}
	}
	for _, addr := range pool {
		if mem.Code(addr) != nil && string(resumed.Code(addr)) != string(mem.Code(addr)) {
			t.Fatalf("resumed code mismatch for %x", addr[:4])
		}
		memSlots := dumpStorage(mem, addr)
		gotSlots := dumpStorage(resumed, addr)
		if len(memSlots) != len(gotSlots) {
			t.Fatalf("resumed slot count mismatch for %x", addr[:4])
		}
		for h, v := range memSlots {
			if gotSlots[h] != v {
				t.Fatalf("resumed slot %x mismatch for %x", h[:6], addr[:4])
			}
		}
	}
	// OpenSnapshot at a root that was never committed must fail.
	var bogus types.Hash
	bogus[0] = 0xFF
	if _, err := OpenSnapshot(db2, bogus); err == nil {
		t.Fatal("OpenSnapshot accepted a non-live root")
	}
}

// TestGenesisBuildIntoParity: chunked disk genesis — including a contract
// whose storage alone spans several chunks — must land on exactly the root
// the in-memory builder computes (MPT canonicality makes chunking
// unobservable).
func TestGenesisBuildIntoParity(t *testing.T) {
	build := func() *GenesisBuilder {
		g := NewGenesisBuilder()
		for i := 0; i < 300; i++ {
			var addr types.Address
			addr[0], addr[1] = byte(i), byte(i>>8)
			g.AddAccount(addr, uint256.NewInt(uint64(1000+i)))
		}
		// One contract with storage far larger than the chunk size below.
		var big types.Address
		big[19] = 0xCC
		slots := make(map[types.Hash]uint256.Int, 200)
		for i := 0; i < 200; i++ {
			var slot types.Hash
			slot[0], slot[1] = byte(i), byte(i>>8)
			slots[slot] = *uint256.NewInt(uint64(i + 1))
		}
		g.AddContract(big, uint256.NewInt(5), []byte("contract-code"), slots)
		return g
	}

	memRoot := build().Build().Root()
	for _, chunk := range []int{32, 128, 1 << 20} {
		db := openStateDB(t, 0)
		st := build().BuildInto(db, chunk)
		if st.Root() != memRoot {
			t.Fatalf("chunk=%d: disk genesis root %x != mem %x", chunk, st.Root().Bytes()[:6], memRoot.Bytes()[:6])
		}
		// Only the final root should remain anchored.
		if roots := db.LiveRoots(); len(roots) != 1 || types.Hash(roots[0]) != memRoot {
			t.Fatalf("chunk=%d: expected exactly the final root live, got %d roots", chunk, len(roots))
		}
		var big types.Address
		big[19] = 0xCC
		if got := st.Storage(big, func() types.Hash { var s types.Hash; s[0] = 7; return s }()); got.Uint64() != 8 {
			t.Fatalf("chunk=%d: contract slot read = %d, want 8", chunk, got.Uint64())
		}
		if string(st.Code(big)) != "contract-code" {
			t.Fatalf("chunk=%d: contract code mismatch", chunk)
		}
	}
}
