package state

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"

	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// diskChainKeepRoots is the trailing live-root window of the disk chain
// driver: roots older than this many blocks are released (steady-state
// pruning), matching the benchmark's state_disk workload.
const diskChainKeepRoots = 8

// diskChainAddr derives the i-th population address.
func diskChainAddr(i int) types.Address {
	var a types.Address
	a[0], a[1], a[2] = byte(i), byte(i>>8), byte(i>>16)
	a[19] = 0xD5
	return a
}

// runDiskChain grows a population of `accounts` EOAs through the chunked
// disk genesis builder, then commits `blocks` chained change sets — each
// touching txAccounts random accounts, a third of them also writing storage
// slots (some zeroed) — releasing roots behind the diskChainKeepRoots
// window. It returns the head snapshot.
func runDiskChain(t *testing.T, db *trie.Database, accounts, blocks, txAccounts int) *Snapshot {
	t.Helper()
	g := NewGenesisBuilder()
	for i := 0; i < accounts; i++ {
		g.AddAccount(diskChainAddr(i), uint256.NewInt(uint64(1_000_000+i)))
	}
	st := g.BuildInto(db, 0)

	r := rand.New(rand.NewSource(1))
	window := []types.Hash{st.Root()}
	for b := 0; b < blocks; b++ {
		var accts []AccountChange
		index := make(map[types.Address]int)
		for len(accts) < txAccounts {
			addr := diskChainAddr(r.Intn(accounts))
			ch := AccountChange{Addr: addr, Nonce: st.Nonce(addr) + 1, Balance: st.Balance(addr)}
			if r.Intn(3) == 0 {
				for s := 0; s < 1+r.Intn(8); s++ {
					var slot types.Hash
					slot[0] = byte(r.Intn(64))
					var v uint256.Int
					if r.Intn(4) != 0 {
						v.SetUint64(uint64(r.Int63()))
					}
					ch.Slots = append(ch.Slots, SlotChange{Slot: slot, Val: v})
				}
			}
			if i, ok := index[addr]; ok {
				accts[i] = ch
			} else {
				index[addr] = len(accts)
				accts = append(accts, ch)
			}
		}
		st = st.CommitParallel(NewChangeSet(accts...), 4)
		window = append(window, st.Root())
		for len(window) > diskChainKeepRoots {
			if err := db.Release([32]byte(window[0])); err != nil {
				t.Fatalf("release at block %d: %v", b, err)
			}
			window = window[1:]
		}
	}
	return st
}

// checkDiskChain asserts what every disk chain run must leave behind: a
// non-empty store, a live-root set no larger than the pruning window, and a
// head root that a fresh OpenSnapshot handle (no in-memory trie, cold cache
// path) re-derives exactly.
func checkDiskChain(t *testing.T, db *trie.Database, head *Snapshot) {
	t.Helper()
	if s := db.Stats(); s.Nodes <= 0 || s.FileBytes <= 0 {
		t.Fatalf("empty store after run: %d nodes, %d bytes", s.Nodes, s.FileBytes)
	}
	if live := len(db.LiveRoots()); live > diskChainKeepRoots {
		t.Fatalf("pruning window leaked: %d live roots, keep %d", live, diskChainKeepRoots)
	}
	reopened, err := OpenSnapshot(db, head.Root())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if reopened.Root() != head.Root() {
		t.Fatal("reopened root mismatch")
	}
}

// TestDiskStateSmoke runs the disk chain at smoke size: enough blocks that
// the release window actually prunes.
func TestDiskStateSmoke(t *testing.T) {
	db := openStateDB(t, 2_048)
	head := runDiskChain(t, db, 4_000, diskChainKeepRoots+4, 64)
	checkDiskChain(t, db, head)
}

// TestDiskStateScale (env-gated): the millions-of-accounts acceptance run.
// BLOCKPILOT_SCALE_ACCOUNTS selects the population — `make state-smoke`
// sets 500000; the full 5M-account run is `BLOCKPILOT_SCALE_ACCOUNTS=5000000
// go test -run TestDiskStateScale -timeout 60m ./internal/state/`. The chain
// must sustain block production with bounded heap: the post-run heap must
// stay far below what the resident population would need in memory (~200
// bytes of trie per account), proving state actually lives on disk.
func TestDiskStateScale(t *testing.T) {
	accounts, err := strconv.Atoi(os.Getenv("BLOCKPILOT_SCALE_ACCOUNTS"))
	if err != nil || accounts <= 0 {
		t.Skip("set BLOCKPILOT_SCALE_ACCOUNTS (e.g. 500000) to run the scale battery")
	}
	db := openStateDB(t, 16_384)
	head := runDiskChain(t, db, accounts, 32, 240)

	// Bounded-memory acceptance: heap must not scale with the population.
	// The second collection empties the sync.Pools' victim caches, which
	// the first only moves them into.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)
	budgetMB := 256 + float64(accounts)*24/(1<<20) // slack + ~24B/acct bookkeeping
	if heapMB > budgetMB {
		t.Fatalf("heap ceiling exceeded: %.1f MB after GC, budget %.1f MB for %d accounts", heapMB, budgetMB, accounts)
	}
	fileMB := float64(db.Stats().FileBytes) / (1 << 20)
	if fileMB < float64(accounts)/1e6*40 {
		t.Fatalf("store file suspiciously small (%.1f MB) — accounts not persisted?", fileMB)
	}
	t.Logf("%d accounts: heap %.1f MB after GC (budget %.1f MB), store %.1f MB", accounts, heapMB, budgetMB, fileMB)
	checkDiskChain(t, db, head)
}
