package trie

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"blockpilot/internal/trie/store"
)

// writeProgram draws one round of a disk trie's history: short keys, whose
// leaves embed in their parents, 32-byte keys, whose leaves are hashed, and
// deletes of keys written before, which collapse branches into extensions
// over stored nodes.
func writeProgram(r *rand.Rand, written *[][]byte, n int) (keys, vals [][]byte) {
	for i := 0; i < n; i++ {
		if len(*written) > 0 && r.Intn(5) == 0 {
			keys = append(keys, (*written)[r.Intn(len(*written))])
			vals = append(vals, nil)
			continue
		}
		k := make([]byte, 32)
		if r.Intn(2) == 0 {
			k = k[:1+r.Intn(3)]
		}
		r.Read(k)
		v := make([]byte, 1+r.Intn(40))
		r.Read(v)
		keys, vals = append(keys, k), append(vals, v)
		*written = append(*written, k)
	}
	return keys, vals
}

// checkCachedShape requires every entry of db's node cache — written or read
// — to re-encode to its stored record byte for byte, and every child it
// references by a 33-byte hash to be a *hashNode: what a cached
// node keeps is itself, never a subtree. It returns how many cached children
// were hashNodes and how many were embedded nodes.
func checkCachedShape(t *testing.T, db *Database) (hashed, embedded int) {
	t.Helper()
	c := db.cache
	for j := 1; j < len(c.slab); j++ {
		e := &c.slab[j]
		rec, err := db.st.Get(e.hash)
		if err != nil {
			t.Fatalf("cached node %x: %v", e.hash[:4], err)
		}
		if enc := appendNode(nil, e.n); !bytes.Equal(enc, rec) {
			t.Fatalf("cached node %x re-encodes to %x, record %x", e.hash[:4], enc, rec)
		}
		var children []node
		switch nd := e.n.(type) {
		case *extNode:
			children = []node{nd.child}
		case *branchNode:
			children = nd.children[:]
		}
		for _, ch := range children {
			if ch == nil {
				continue
			}
			if len(appendRef(nil, ch)) < 33 {
				embedded++
				continue
			}
			if _, ok := ch.(*hashNode); !ok {
				t.Fatalf("cached node %x refers to a hashed %T, not a hashNode", e.hash[:4], ch)
			}
			hashed++
		}
	}
	return hashed, embedded
}

// TestWriteThroughShape: after PersistTrie and Commit the cache holds the
// branch and extension nodes just written, each in the shape decodeNode gives
// its record, over a history with embedded children, hashed children and
// deletes.
func TestWriteThroughShape(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := openTestDB(t, 0)
	tr := NewDB(db)
	var written [][]byte
	hashed, embedded := 0, 0
	for round := 0; round < 8; round++ {
		keys, vals := writeProgram(r, &written, 150)
		tr.Batch(keys, vals)
		root := persistTrie(t, db, tr)
		if _, ok := db.cache.get(root); !ok {
			t.Fatalf("round %d: the root just written is not cached", round)
		}
		h, e := checkCachedShape(t, db)
		hashed, embedded = hashed+h, embedded+e
	}
	if hashed == 0 || embedded == 0 {
		t.Fatalf("history exercised %d hashed and %d embedded children: want both", hashed, embedded)
	}
}

// TestReleaseEvictsPruned: a node Release prunes leaves the cache with it, so
// a read through the released root finds neither and panics with
// *MissingNodeError, at the default cache size.
func TestReleaseEvictsPruned(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	db := openTestDB(t, DefaultCacheNodes)
	tr := NewDB(db)
	var written [][]byte
	keys, vals := writeProgram(r, &written, 300)
	tr.Batch(keys, vals)
	old := persistTrie(t, db, tr)
	stale := NewAt(db, old)
	keys, vals = writeProgram(r, &written, 100)
	tr.Batch(keys, vals)
	persistTrie(t, db, tr)
	if _, ok := db.cache.get(old); !ok {
		t.Fatal("the released root was never cached: nothing to evict")
	}
	cached := make([][32]byte, 0, len(db.cache.slab))
	for _, e := range db.cache.slab[1:] {
		cached = append(cached, e.hash)
	}
	if err := db.Release(old); err != nil {
		t.Fatal(err)
	}
	pruned := 0
	for _, h := range cached {
		if db.st.Has(h) {
			continue
		}
		pruned++
		if _, ok := db.cache.get(h); ok {
			t.Fatalf("the cache serves pruned node %x", h[:4])
		}
	}
	if pruned == 0 {
		t.Fatal("the release pruned no cached node")
	}
	checkCachedShape(t, db)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("read through a released root did not panic")
		} else if _, ok := r.(*MissingNodeError); !ok {
			panic(r)
		}
	}()
	stale.ForEach(func(k, v []byte) bool { return true })
}

// TestBatchReuse: two Databases commit in turn, each through the batch its
// last commit left; their store files are byte-identical to those of the same
// history committed through a fresh batch every time. Each commit persists a
// small trie and then a larger one into the one batch, as a state commit
// persists storage tries and then the accounts trie.
func TestBatchReuse(t *testing.T) {
	run := func(fresh bool) (files [2][]byte) {
		r := rand.New(rand.NewSource(9))
		var dbs [2]*Database
		var tries, small [2]*Trie
		var roots [2][][32]byte
		var written [2][][]byte
		for d := range dbs {
			dbs[d] = openTestDB(t, 64)
			tries[d], small[d] = NewDB(dbs[d]), NewDB(dbs[d])
		}
		reused := 0
		for round := 0; round < 16; round++ {
			d := round % 2
			db := dbs[d]
			k, v := writeProgram(r, &written[d], 3)
			small[d].Batch(k, v)
			k, v = writeProgram(r, &written[d], 20+r.Intn(200))
			tries[d].Batch(k, v)
			if fresh {
				db.spare.Store(nil)
			}
			spare := db.spare.Load()
			b := db.NewBatch()
			if spare != nil && b == spare {
				reused++
			}
			b.PersistTrie(small[d])
			root := b.PersistTrie(tries[d])
			if err := b.Commit(root); err != nil {
				t.Fatal(err)
			}
			if roots[d] = append(roots[d], root); len(roots[d]) > 2 {
				if err := db.Release(roots[d][0]); err != nil {
					t.Fatal(err)
				}
				roots[d] = roots[d][1:]
			}
		}
		if fresh != (reused == 0) {
			t.Fatalf("fresh %v: %d commits went through a reused batch", fresh, reused)
		}
		for d, db := range dbs {
			file, err := db.Store().ReadFileForTest()
			if err != nil {
				t.Fatal(err)
			}
			files[d] = file
		}
		return files
	}
	reused, fresh := run(false), run(true)
	for d := range reused {
		if !bytes.Equal(reused[d], fresh[d]) {
			t.Fatalf("database %d: reused batches wrote %d bytes, fresh ones %d, and they differ", d, len(reused[d]), len(fresh[d]))
		}
	}
}

// TestBatchNotRecycled: a batch whose Commit fails is not reused, and what it
// staged is not cached; nor is one whose buffer outgrew maxSpareBuf reused.
func TestBatchNotRecycled(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	var written [][]byte

	db := openTestDB(t, 0)
	tr := NewDB(db)
	tr.Batch(writeProgram(r, &written, 100))
	b := db.NewBatch()
	b.buf = make([]byte, 0, maxSpareBuf+1)
	if err := b.Commit(b.PersistTrie(tr)); err != nil {
		t.Fatal(err)
	}
	if db.spare.Load() != nil {
		t.Fatal("a batch over maxSpareBuf was kept")
	}

	tr.Batch(writeProgram(r, &written, 100))
	b = db.NewBatch()
	root := b.PersistTrie(tr)
	if err := db.Store().Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(root); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("Commit on a closed store: %v, want ErrClosed", err)
	}
	if db.spare.Load() != nil {
		t.Fatal("a batch whose Commit failed was kept")
	}
	if _, ok := db.cache.get(root); ok {
		t.Fatal("a batch whose Commit failed cached its nodes")
	}
}

// writeThroughSlabs counts the allocations the persist walk owes n's fresh
// subtree: one hashNode slab for each staged branch or extension node with a
// fresh child referenced by hash. records counts the nodes it stages.
func writeThroughSlabs(n node) (slabs, records int) {
	if n == nil || n.cache() == nil || len(appendRef(nil, n)) < 33 {
		return 0, 0
	}
	var children []node
	switch nd := n.(type) {
	case *extNode:
		children = []node{nd.child}
	case *branchNode:
		children = nd.children[:]
	}
	owed := 0
	for _, ch := range children {
		s, r := writeThroughSlabs(ch)
		slabs, records = slabs+s, records+r
		if _, ok := hashRef(ch); ok {
			owed = 1
		}
	}
	return slabs + owed, records + 1
}

// TestPersistAllocs: a commit through a reused batch allocates nothing per
// staged record — no copy of an encoding, no regrown array — and for each
// staged inner node only the hashNodes of its write-through, one slab, which
// is what decodeNode would allocate were the node read back. A same-shape
// commit of 64 updates to a 4 096-key trie is measured after one warm-up.
func TestPersistAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := rand.New(rand.NewSource(11))
	db := openTestDB(t, 0)
	tr := NewDB(db)
	keys, vals := randomPairs(r, 4096, 0)
	tr.Batch(keys, vals)
	prev := persistTrie(t, db, tr)
	// Mallocs counts the whole process: two Ps and no collector, as in
	// store.TestReleaseAllocs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	for round := 0; round < 4; round++ {
		uk, uv := make([][]byte, 64), make([][]byte, 64)
		for i := range uk {
			uk[i], uv[i] = keys[r.Intn(len(keys))], bytes.Repeat([]byte{byte(round), byte(i)}, 16)
		}
		tr.Batch(uk, uv)
		tr.Hash()
		slabs, records := writeThroughSlabs(tr.root)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b := db.NewBatch()
		root := b.PersistTrie(tr)
		if err := b.Commit(root); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - before
		if err := db.Release(prev); err != nil {
			t.Fatal(err)
		}
		prev = root
		t.Logf("round %d: %d records staged, %d write-through slabs, %d allocations", round, records, slabs, allocs)
		// Two more are constant: the hashNode PersistTrie leaves as root and
		// the liveness test store.(*Batch).Commit binds for its edges.
		if round > 0 && allocs > uint64(slabs)+2 {
			t.Fatalf("round %d: %d allocations for %d records, want at most %d (one slab per write-through, two per commit)", round, allocs, records, slabs+2)
		}
	}
}
