package state

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// randomChangeSet builds a change set over nAccounts accounts, mixing EOAs,
// contracts with storage writes, zeroed (deleted) slots, and code sets.
// Addresses overlap run-to-run for a given rng so successive commits touch
// existing accounts too.
func randomChangeSet(r *rand.Rand, nAccounts, addrSpace int) *ChangeSet {
	var accts []AccountChange
	index := make(map[types.Address]int)
	for len(accts) < nAccounts {
		var addr types.Address
		v := r.Intn(addrSpace * 8) // 8× headroom over nAccounts, still collision-heavy
		addr[0] = byte(v)
		addr[1] = byte(v >> 8)
		addr[19] = 0xEE
		ch := AccountChange{Addr: addr, Nonce: uint64(r.Intn(1000))}
		ch.Balance.SetUint64(uint64(r.Int63()))
		switch r.Intn(4) {
		case 0: // plain EOA change
		case 1: // contract deploy: code + storage
			code := make([]byte, 1+r.Intn(64))
			r.Read(code)
			ch.Code, ch.CodeSet = code, true
			fallthrough
		default: // storage writes, some zeroed (deletes)
			for s := 0; s < 1+r.Intn(12); s++ {
				var slot types.Hash
				slot[0] = byte(r.Intn(32)) // collide across commits
				slot[31] = byte(r.Intn(8))
				var v uint256.Int
				if r.Intn(4) != 0 {
					v.SetUint64(uint64(r.Int63()))
				} // else zero → slot delete
				ch.Slots = append(ch.Slots, SlotChange{Slot: slot, Val: v}) // a repeated slot: the last write wins
			}
		}
		if i, ok := index[addr]; ok {
			accts[i] = ch // an overwritten account
		} else {
			index[addr] = len(accts)
			accts = append(accts, ch)
		}
	}
	return NewChangeSet(accts...)
}

// snapshotEqual checks full observable parity, not just the root.
func snapshotEqual(t *testing.T, a, b *Snapshot, label string) {
	t.Helper()
	if ar, br := a.Root(), b.Root(); ar != br {
		t.Fatalf("%s: root %s != %s", label, ar, br)
	}
	if ac, bc := a.AccountCount(), b.AccountCount(); ac != bc {
		t.Fatalf("%s: account count %d != %d", label, ac, bc)
	}
	a.ForEachAccount(func(h types.Hash, acct Account) bool {
		return true
	})
	if len(a.storage) != len(b.storage) {
		t.Fatalf("%s: storage trie count %d != %d", label, len(a.storage), len(b.storage))
	}
	for addr, st := range a.storage {
		bst, ok := b.storage[addr]
		if !ok {
			t.Fatalf("%s: storage trie for %s missing", label, addr)
		}
		if st.Hash() != bst.Hash() {
			t.Fatalf("%s: storage root mismatch for %s", label, addr)
		}
	}
	if len(a.codes) != len(b.codes) {
		t.Fatalf("%s: code store size %d != %d", label, len(a.codes), len(b.codes))
	}
}

// commitRef is the serial commit CommitParallel replaced, kept as the
// reference of the parity suite: one resolveChange and one accounts-trie
// Update per account, no Batch, no fan-out, on either backend.
func commitRef(s *Snapshot, cs *ChangeSet) *Snapshot {
	ns := s.child()
	mem := memInstaller{ns: ns}
	results := make([]resolvedChange, len(cs.Accounts))
	for i := range cs.Accounts {
		ch := &cs.Accounts[i]
		r := s.resolveChange(ch)
		if s.db == nil {
			mem.install(ch.Addr, &r)
		}
		ns.accounts.Update(r.hashedAddr, r.leaf)
		results[i] = r
	}
	if s.db != nil {
		ns.persist(results)
	}
	return ns
}

// TestCommitParallelParity is the acceptance-criteria parity suite: a chain
// of randomized change sets (deletes, code sets, zeroed slots, account
// overwrites) committed by the serial reference and by the one commit body
// with every worker count must agree on every root at every step, on both
// backends. Every third change set is smaller than
// minParallelCommitAccounts, so the inline-resolve arm is compared too.
func TestCommitParallelParity(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	for _, backend := range []string{"mem", "disk"} {
		fresh := func() *Snapshot {
			if backend == "disk" {
				return NewSnapshotDisk(openStateDB(t, 256))
			}
			return NewSnapshot()
		}
		for seed := int64(1); seed <= 5; seed++ {
			ref := fresh()
			parallel := make([]*Snapshot, len(workerCounts))
			for i := range parallel {
				parallel[i] = fresh()
			}
			r := rand.New(rand.NewSource(seed))
			for step := 0; step < 6; step++ {
				n := 1 + r.Intn(64)
				if step%3 == 2 {
					n = 1 + r.Intn(minParallelCommitAccounts-1)
				}
				cs := randomChangeSet(r, n, 48)
				ref = commitRef(ref, cs)
				for i, w := range workerCounts {
					parallel[i] = parallel[i].CommitParallel(cs, w)
					label := fmt.Sprintf("%s seed %d step %d workers %d", backend, seed, step, w)
					snapshotEqual(t, ref, parallel[i], label)
					if got, want := parallel[i].RootParallel(w), ref.Root(); got != want {
						t.Fatalf("%s: RootParallel %s != Root %s", label, got, want)
					}
					if backend == "disk" {
						got, want := parallel[i].db.Store().Stats(), ref.db.Store().Stats()
						if got.Puts != want.Puts || got.FileBytes != want.FileBytes {
							t.Fatalf("%s: store %d puts / %d bytes, reference %d / %d",
								label, got.Puts, got.FileBytes, want.Puts, want.FileBytes)
						}
					}
				}
			}
		}
	}
}

// TestCommitParallelLeavesParentIntact proves the persistence invariant
// holds on the parallel path too.
func TestCommitParallelLeavesParentIntact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	parent := NewSnapshot().Commit(randomChangeSet(r, 40, 48))
	before := parent.Root()
	_ = parent.CommitParallel(randomChangeSet(r, 40, 48), 4)
	if parent.Root() != before {
		t.Fatal("CommitParallel mutated the parent snapshot")
	}
}

// TestConcurrentCommitsFromOneParent mirrors the validator pipeline: several
// goroutines commit different change sets from one shared parent snapshot
// at once (run under -race via the Makefile target).
func TestConcurrentCommitsFromOneParent(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	parent := NewSnapshot().Commit(randomChangeSet(r, 60, 48))
	sets := make([]*ChangeSet, 8)
	for i := range sets {
		sets[i] = randomChangeSet(rand.New(rand.NewSource(int64(100+i%4))), 30, 48)
	}
	roots := make([]types.Hash, len(sets))
	var wg sync.WaitGroup
	for i := range sets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				roots[i] = parent.CommitParallel(sets[i], 4).RootParallel(4)
			} else {
				roots[i] = parent.Commit(sets[i]).Root()
			}
		}(i)
	}
	wg.Wait()
	// Pairs (0,2), (1,3), (4,6), (5,7) used identical seeds mod 4: the
	// serial and parallel committers must agree.
	for i := 0; i < len(sets); i++ {
		j := (i + 4) % 8
		if sets[i] != nil && roots[i] != roots[j] && i%4 == j%4 {
			t.Fatalf("concurrent commit roots diverged: %d vs %d", i, j)
		}
	}
}

// TestHashedKeyCacheParity: reads through the cache agree with fresh
// snapshots that have cold caches.
func TestHashedKeyCacheParity(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cs := randomChangeSet(r, 50, 48)
	warm := NewSnapshot().Commit(cs) // cache warmed during commit
	cold := NewSnapshot().Commit(cs)
	for _, ch := range cs.Accounts {
		addr := ch.Addr
		if warm.Nonce(addr) != cold.Nonce(addr) {
			t.Fatalf("nonce mismatch through key cache for %s", addr)
		}
		for _, s := range ch.Slots {
			slot := s.Slot
			w, c := warm.Storage(addr, slot), cold.Storage(addr, slot)
			if w.Cmp(&c) != 0 {
				t.Fatalf("storage mismatch through key cache for %s %s", addr, slot)
			}
		}
	}
}

func BenchmarkCommitSerial(b *testing.B)    { benchCommit(b, 1) }
func BenchmarkCommitParallel4(b *testing.B) { benchCommit(b, 4) }
func BenchmarkCommitParallel8(b *testing.B) { benchCommit(b, 8) }

func benchCommit(b *testing.B, workers int) {
	r := rand.New(rand.NewSource(1))
	parent := NewSnapshot().Commit(randomChangeSet(r, 500, 256))
	cs := randomChangeSet(r, 200, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns := parent.CommitParallel(cs, workers)
		_ = ns.RootParallel(workers)
	}
}
