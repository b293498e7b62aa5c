package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
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
// end. Old disk roots are released as the chain advances, so trie reads
// through the node cache and pruning run together.
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

	// Reopen consistency: an OpenSnapshot handle at the live root shares no
	// in-memory trie with the committed snapshot — answers must match the
	// live snapshot's exactly.
	reopened, err := OpenSnapshot(dbSerial, serial.Root())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Root() != serial.Root() {
		t.Fatal("reopened root mismatch")
	}
	for _, addr := range pool {
		if reopened.Nonce(addr) != serial.Nonce(addr) || reopened.Balance(addr) != serial.Balance(addr) {
			t.Fatalf("reopened account read diverges from live for %x", addr[:4])
		}
		for slotByte := 0; slotByte < 6; slotByte++ {
			var slot types.Hash
			slot[0] = byte(slotByte)
			if reopened.Storage(addr, slot) != serial.Storage(addr, slot) {
				t.Fatalf("reopened slot read diverges from live for %x/%d", addr[:4], slotByte)
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

// TestLargeCommitReadsItsOwnWrites: a commit larger than any block (4 100
// accounts and more) rewrites an account and a contract slot that the small
// commit before it wrote. Every account and slot read from the child must
// equal the mem backend's and an OpenSnapshot's of the same root — the
// commit's own values, not the small commit's.
func TestLargeCommitReadsItsOwnWrites(t *testing.T) {
	db := openStateDB(t, 1_024)
	eoa, contract := types.Address{19: 0xA0}, types.Address{19: 0xC0}
	slot, other := types.Hash{31: 1}, types.Hash{31: 2}
	small := NewChangeSet(
		AccountChange{Addr: eoa, Nonce: 1, Balance: *uint256.NewInt(10)},
		AccountChange{Addr: contract, Nonce: 1, Code: []byte{0x60, 0x00}, CodeSet: true,
			Slots: []SlotChange{{Slot: slot, Val: *uint256.NewInt(1)}, {Slot: other, Val: *uint256.NewInt(7)}}},
	)
	accts := []AccountChange{
		{Addr: eoa, Nonce: 2, Balance: *uint256.NewInt(20)},
		{Addr: contract, Nonce: 2, Slots: []SlotChange{{Slot: slot, Val: *uint256.NewInt(2)}}},
	}
	for i := 0; i < 4_100; i++ {
		accts = append(accts, AccountChange{Addr: types.Address{0: 0xEE, 1: byte(i >> 8), 2: byte(i)}, Nonce: 1, Balance: *uint256.NewInt(uint64(i))})
	}
	large := NewChangeSet(accts...)

	mem := NewSnapshot().Commit(small).Commit(large)
	disk := NewSnapshotDisk(db).Commit(small).CommitParallel(large, 4)
	reopened, err := OpenSnapshot(db, disk.Root())
	if err != nil {
		t.Fatal(err)
	}
	if disk.Root() != mem.Root() {
		t.Fatalf("disk root %s, mem root %s", disk.Root(), mem.Root())
	}
	if got := disk.Nonce(eoa); got != 2 {
		t.Fatalf("nonce %d read back, 2 committed", got)
	}
	if got := disk.Storage(contract, slot); got.Uint64() != 2 {
		t.Fatalf("slot %d read back, 2 committed", got.Uint64())
	}
	for _, ch := range large.Accounts {
		want, _ := mem.Account(ch.Addr)
		for name, s := range map[string]*Snapshot{"disk": disk, "reopened": reopened} {
			if got, _ := s.Account(ch.Addr); got != want {
				t.Fatalf("%s account %x = %+v, mem backend %+v", name, ch.Addr[:4], got, want)
			}
			for _, sl := range []types.Hash{slot, other} {
				if got, want := s.Storage(ch.Addr, sl), mem.Storage(ch.Addr, sl); got != want {
					t.Fatalf("%s slot %x/%x = %s, mem backend %s", name, ch.Addr[:4], sl[31:], got.String(), want.String())
				}
			}
		}
	}
}

// TestCommitOrdersLaterStoreCalls: a disk commit returns at its root and
// persists behind it, so each check below is the first store call after a
// commit of 4 100 accounts with slots and code, made while that persist is
// still running. The commit reserved the store's lock before it returned, so
// each call must see the commit's barrier: the root live and readable, the
// barrier record at the file's end after a Sync, the parent releasable
// without taking a node the child needs — and reads from many goroutines at
// once wait for the persist instead of racing it. Each check commits its own
// child of one parent, with values of its own, so no check sees an earlier
// one's root. Taking the lock on the persist goroutine instead of before the
// commit returns fails every check but the concurrent reads.
func TestCommitOrdersLaterStoreCalls(t *testing.T) {
	const accounts = 8_200 // a child rewrites every other one
	addr := func(i int) types.Address { return types.Address{0: 0xB0, 1: byte(i >> 8), 2: byte(i)} }
	slots := []types.Hash{{31: 1}, {31: 2}, {31: 3}}
	changes := func(round, step int) *ChangeSet {
		var accts []AccountChange
		for i := 0; i < accounts; i += step {
			ch := AccountChange{Addr: addr(i), Nonce: uint64(round), Balance: *uint256.NewInt(uint64(round*accounts + i)),
				Slots: []SlotChange{{Slot: slots[round%2], Val: *uint256.NewInt(uint64(i + 1))}, {Slot: slots[2], Val: *uint256.NewInt(uint64(round))}}}
			if i%16 == 0 {
				ch.Code, ch.CodeSet = []byte(fmt.Sprintf("code-%d-%d", round, i)), true
			}
			accts = append(accts, ch)
		}
		return NewChangeSet(accts...)
	}

	// equalToMem reads accounts [from, accounts) by stride from s.
	equalToMem := func(label string, s, mem *Snapshot, from, stride int) error {
		for i := from; i < accounts; i += stride {
			a := addr(i)
			got, _ := s.Account(a)
			if want, _ := mem.Account(a); got != want {
				return fmt.Errorf("%s: account %d = %+v, mem backend %+v", label, i, got, want)
			}
			if i%16 == 0 {
				if got, want := s.Code(a), mem.Code(a); string(got) != string(want) {
					return fmt.Errorf("%s: code %d = %q, mem backend %q", label, i, got, want)
				}
			}
			for _, sl := range slots {
				if got, want := s.Storage(a, sl), mem.Storage(a, sl); got != want {
					return fmt.Errorf("%s: slot %d/%x = %s, mem backend %s", label, i, sl[31:], got.String(), want.String())
				}
			}
		}
		return nil
	}

	db := openStateDB(t, 0)
	parentCS := changes(1, 1)
	memParent := NewSnapshot().Commit(parentCS)
	parent := NewSnapshotDisk(db).CommitParallel(parentCS, 4)
	parent.Nonce(addr(0)) // the parent's persist is done: only each child's is in flight at its check
	checks := []struct {
		name  string
		check func(t *testing.T, child, mem *Snapshot)
	}{
		{"HasRoot", func(t *testing.T, child, mem *Snapshot) {
			if !db.HasRoot([32]byte(child.Root())) {
				t.Fatal("the committed root is not live")
			}
			reopened, err := OpenSnapshot(db, child.Root())
			if err != nil {
				t.Fatal(err)
			}
			if err := equalToMem("reopened", reopened, mem, 0, 1); err != nil {
				t.Fatal(err)
			}
		}},
		{"Sync", func(t *testing.T, child, _ *Snapshot) {
			if err := db.Store().Sync(); err != nil {
				t.Fatal(err)
			}
			file, err := db.Store().ReadFileForTest()
			if err != nil {
				t.Fatal(err)
			}
			root := child.Root()
			barrier := append(append([]byte{4}, root[:]...), 0, 0, 0, 0) // commit kind, root, empty payload
			barrier = binary.BigEndian.AppendUint32(barrier, crc32.ChecksumIEEE(barrier))
			if !bytes.HasSuffix(file, barrier) {
				t.Fatalf("the file does not end with the commit barrier of %s", root)
			}
		}},
		{"ConcurrentReads", func(t *testing.T, child, mem *Snapshot) {
			const readers = 8
			errs := make(chan error, readers)
			for g := 0; g < readers; g++ {
				go func() { errs <- equalToMem(fmt.Sprintf("reader %d", g), child, mem, g, readers) }()
			}
			for g := 0; g < readers; g++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		}},
		{"Release", func(t *testing.T, child, mem *Snapshot) { // last: it prunes the parent
			if err := db.Release([32]byte(parent.Root())); err != nil {
				t.Fatal(err)
			}
			if err := equalToMem("child", child, mem, 0, 1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for round, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			childCS := changes(2+round, 2)
			mem := memParent.Commit(childCS)
			want := mem.Root() // hashed before the commit: nothing may run between it and the check
			child := parent.CommitParallel(childCS, 4)
			if child.Root() != want {
				t.Fatalf("disk root %s, mem root %s", child.Root(), want)
			}
			// The next check's child commits alone, and until the child's
			// barrier the parent alone holds the nodes they share.
			defer func() {
				child.Nonce(addr(0))
				if round < len(checks)-1 {
					if err := db.Release([32]byte(child.Root())); err != nil {
						t.Error(err)
					}
				}
			}()
			c.check(t, child, mem)
		})
	}
}

// TestDiskSnapshotReopenProcess persists a chain of commits, closes the
// database (dropping cache and every in-memory handle), reopens
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

// chunkedGenesis is 300 accounts and one contract whose storage spans
// several of the small chunks the genesis tests build with.
func chunkedGenesis() *GenesisBuilder {
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

// TestGenesisBuildIntoDeterministic: one genesis built twice, each into a
// store of its own, with a chunk small enough that several flushes and
// releases happen and the contract's storage streams across chunks, leaves
// two byte-identical store files.
func TestGenesisBuildIntoDeterministic(t *testing.T) {
	var files [2][]byte
	for run := range files {
		path := filepath.Join(t.TempDir(), "state.db")
		db, err := trie.OpenDatabase(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		chunkedGenesis().BuildInto(db, 32)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if files[run], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("one genesis wrote two different stores: %d and %d bytes", len(files[0]), len(files[1]))
	}
}

// TestGenesisBuildIntoParity: chunked disk genesis — including a contract
// whose storage alone spans several chunks — must land on exactly the root
// the in-memory builder computes (MPT canonicality makes chunking
// unobservable).
func TestGenesisBuildIntoParity(t *testing.T) {
	build := chunkedGenesis
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
