// Disk-backed snapshots: the same immutable Snapshot semantics as the
// in-memory backend, persisted through trie.Database. Per-snapshot maps
// disappear — storage tries are opened lazily from each account's
// storageRoot and contract code comes from content-addressed store records
// — so a snapshot is a root hash plus the shared backend handle, and
// OpenSnapshot can resume any live root after a restart. Every account and
// slot read, and every commit's parent lookup, walks the trie from the
// hashed key through the Database's decoded-node cache, then the store: a
// live snapshot reads exactly as an OpenSnapshot of its root does. Every
// Commit persists its fresh nodes behind one durability barrier and anchors
// the new root; stale roots are pruned with Database.Release.
//
// A commit returns at its root and persists behind it. Before it returns it
// reserves the node store's lock for its batch, and a goroutine releases the
// lock once the batch's barrier is durable: every store call made after the
// commit — the next commit, Release, Sync, HasRoot, a cache miss's Get, Close
// — is ordered after that barrier by the lock alone, so the file, its crash
// recovery and the release order are those of a synchronous commit. The new
// snapshot answers Root at once; every read of its accounts trie waits until
// the persist, which rewrites the trie's fresh nodes, is done.
//
// The backend choice rides inside the Snapshot: chain.CommitAndRoot, both
// proposer engines, the validator and the simulator call the same
// Commit/CommitParallel/Root APIs and never see which backend is active.
package state

import (
	"fmt"
	"runtime"
	"slices"

	"blockpilot/internal/rlp"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

var mPersistWaits = telemetry.NewCounter("blockpilot_state_persist_waits_total",
	"disk snapshot reads that waited for the persist of the commit that made the snapshot")

// NewSnapshotDisk returns an empty world state persisting through db.
func NewSnapshotDisk(db *trie.Database) *Snapshot {
	return &Snapshot{
		accounts: trie.NewDB(db),
		storage:  make(map[types.Address]*trie.Trie),
		codes:    make(map[types.Hash][]byte),
		keys:     newKeyCache(),
		db:       db,
	}
}

// OpenSnapshot resumes the world state at a live root — how a restarted
// node picks up where the store's durable tail left off. Opening is O(1);
// reads fault nodes in on demand.
func OpenSnapshot(db *trie.Database, root types.Hash) (*Snapshot, error) {
	if !db.HasRoot([32]byte(root)) {
		return nil, fmt.Errorf("state: root %x is not live in the store", root[:8])
	}
	s := NewSnapshotDisk(db)
	s.accounts = trie.NewAt(db, [32]byte(root))
	return s, nil
}

// Database returns the disk backend handle (nil on the in-memory backend).
func (s *Snapshot) Database() *trie.Database { return s.db }

// storageTrie opens the storage trie rooted at root (empty for the empty or
// zero root).
func (s *Snapshot) storageTrie(root types.Hash) *trie.Trie {
	if root == types.Hash(trie.EmptyRoot) || root == (types.Hash{}) {
		return trie.NewDB(s.db)
	}
	return trie.NewAt(s.db, [32]byte(root))
}

// storageDisk is Storage on the disk backend: the account's storage trie via
// its storageRoot.
func (s *Snapshot) storageDisk(addr types.Address, slot types.Hash) uint256.Int {
	s.db.CountLogicalRead()
	var v uint256.Int
	a, ok := s.lookupHashed(s.hashedAddr(addr))
	if !ok || a.storageRoot == types.Hash(trie.EmptyRoot) || a.storageRoot == (types.Hash{}) {
		return v
	}
	leaf := s.storageTrie(a.storageRoot).Get(s.hashedSlot(slot))
	if leaf == nil {
		return v
	}
	content, _, err := rlp.SplitString(leaf)
	if err != nil {
		return v
	}
	v.SetBytes(content)
	return v
}

// ForEachStorage visits every slot of addr's storage trie in hashed-key
// order (both backends; the parity suite iterates full slot state with it).
func (s *Snapshot) ForEachStorage(addr types.Address, fn func(hashedSlot types.Hash, val uint256.Int) bool) {
	var st *trie.Trie
	if s.db != nil {
		a, ok := s.lookupHashed(s.hashedAddr(addr))
		if !ok {
			return
		}
		st = s.storageTrie(a.storageRoot)
	} else {
		st = s.storage[addr]
		if st == nil {
			return
		}
	}
	st.ForEach(func(key, leaf []byte) bool {
		var v uint256.Int
		if content, _, err := rlp.SplitString(leaf); err == nil {
			v.SetBytes(content)
		}
		return fn(types.BytesToHash(key), v)
	})
}

// persist writes the disk commit that produced s, whose resolved accounts
// are results: it stages each dirty storage trie and code blob, then s's
// accounts trie, into b — so every account leaf's storageRoot edge resolves
// inside the same batch — writes the batch behind its one barrier, anchors
// s's root and closes s.done. CommitParallel runs it on a goroutine of its
// own with b reserved, so the store's lock is held from before the commit
// returned until the barrier is durable. An I/O failure panics, on that
// goroutine: a state commit that cannot reach disk is as fatal as OOM, and
// the Commit signature (shared with the hot in-memory path) carries no error.
func (s *Snapshot) persist(b *trie.Batch, results []resolvedChange) {
	span := telemetry.StartSpan(telemetry.StateCommitPersistSeconds)
	for i := range results {
		r := &results[i]
		if r.codeSet {
			b.PutCode([32]byte(r.codeHash), r.code)
		}
		if r.storage != nil {
			b.PersistTrie(r.storage)
		}
	}
	root := b.PersistTrie(s.accounts)
	span.End()

	span = telemetry.StartSpan(telemetry.StateCommitBarrierSeconds)
	if err := b.Commit(root); err != nil {
		panic(fmt.Errorf("state: disk commit: %w", err))
	}
	span.End()
	if s.done != nil {
		close(s.done)
	}
}

// defaultGenesisChunk is BuildInto's commit granularity in weight units
// (one unit ≈ one account or one storage slot): large enough to amortize
// batch overhead, small enough that peak in-memory trie spine stays tens of
// megabytes at millions of accounts.
const defaultGenesisChunk = 65536

// BuildInto produces the genesis snapshot on the disk backend, committing
// in chunks and releasing each intermediate root so peak memory stays
// bounded by the chunk size rather than the account count. The final root
// is identical to Build()'s in-memory result: the MPT is canonical, so
// chunking cannot change it (proven by the workload parity test).
func (g *GenesisBuilder) BuildInto(db *trie.Database, chunk int) *Snapshot {
	if db == nil {
		return g.Build()
	}
	if chunk <= 0 {
		chunk = defaultGenesisChunk
	}
	st := NewSnapshotDisk(db)
	var accts []AccountChange
	weight := 0
	var prevRoot types.Hash
	havePrev := false
	flush := func() {
		if len(accts) == 0 {
			return
		}
		st = st.CommitParallel(NewChangeSet(accts...), runtime.GOMAXPROCS(0))
		if havePrev {
			if err := db.Release([32]byte(prevRoot)); err != nil {
				panic(fmt.Errorf("state: genesis chunk release: %w", err))
			}
		}
		prevRoot, havePrev = st.Root(), true
		accts, weight = accts[:0], 0
	}

	// Chunks follow address order, so that one genesis always writes the
	// same intermediate roots and store bytes.
	addrs := make([]types.Address, 0, len(g.accounts))
	for addr := range g.accounts {
		addrs = append(addrs, addr)
	}
	slices.SortFunc(addrs, func(a, b types.Address) int { return compareAddr(&a, &b) })
	for _, addr := range addrs {
		acct := g.accounts[addr]
		if len(acct.Storage) > chunk {
			// A contract whose storage alone exceeds a chunk: stream its
			// sorted slots across several commits of the same account (the
			// trie merges them; nonce/balance re-apply idempotently).
			ch := acct.change(addr, acct.Storage, true)
			for slots := ch.Slots; len(slots) > 0; {
				n := min(chunk, len(slots))
				ch.Slots, slots = slots[:n], slots[n:]
				accts = append(accts, ch)
				flush()
				ch.Code, ch.CodeSet = nil, false
			}
			continue
		}
		accts = append(accts, acct.change(addr, acct.Storage, true))
		weight += 1 + len(acct.Storage)
		if weight >= chunk {
			flush()
		}
	}
	flush()
	if !havePrev {
		st = st.Commit(NewChangeSet()) // empty genesis: anchor the empty root
	}
	return st
}
