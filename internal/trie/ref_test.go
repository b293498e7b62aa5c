package trie

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
)

// nodeRefRef and encodeNodeRef are the reference rule as it stood when every
// reference was a slice of its own behind an atomic pointer: a hashNode is
// the string of its hash, any other node its encoding when that is shorter
// than 32 bytes and the string of its keccak hash otherwise. They read no
// cache, so appendRef must equal them on every node, cached or not.
func nodeRefRef(n node) []byte {
	if hn, ok := n.(*hashNode); ok {
		return rlp.EncodeString(hn.hash[:])
	}
	enc := encodeNodeRef(n)
	if len(enc) < 32 {
		return enc
	}
	h := crypto.Sum256(enc)
	return rlp.EncodeString(h[:])
}

func encodeNodeRef(n node) []byte {
	switch nd := n.(type) {
	case *leafNode:
		return rlp.EncodeList(rlp.EncodeString(appendHexPrefix(nil, nd.key, true)), rlp.EncodeString(nd.val))
	case *extNode:
		return rlp.EncodeList(rlp.EncodeString(appendHexPrefix(nil, nd.key, false)), nodeRefRef(nd.child))
	case *branchNode:
		elems := make([][]byte, 17)
		for i, c := range nd.children {
			elems[i] = []byte{0x80}
			if c != nil {
				elems[i] = nodeRefRef(c)
			}
		}
		elems[16] = rlp.EncodeString(nd.value)
		return rlp.EncodeList(elems...)
	}
	return []byte{0x80}
}

// refPairs derives a key/value program from fuzz input: short keys and values
// so children embed, 32-byte keys so they hash, and some deletes.
func refPairs(r *rand.Rand, n int) (keys, vals [][]byte) {
	for ; n > 0; n-- {
		var key []byte
		if r.Intn(3) == 0 {
			key = make([]byte, 1+r.Intn(3)) // shared prefixes, embedded children, branch values
			r.Read(key)
			key[0] &= 0x11
		} else {
			key = crypto.Keccak256([]byte{byte(r.Intn(64))})
			key[0] &= 0x1f // crowd the top of the trie so it branches
		}
		var val []byte
		if r.Intn(8) != 0 { // 1-in-8 is a delete
			val = make([]byte, 1+r.Intn(40))
			r.Read(val)
		}
		keys, vals = append(keys, key), append(vals, val)
	}
	return keys, vals
}

// checkRefs compares every in-memory node's reference under n with the
// reference rule. With cached set, each must already hold it: the walk
// follows a Hash, HashParallel or PersistTrie that filled them all. With db
// set, hashNodes are resolved and the decoded nodes checked too.
func checkRefs(t *testing.T, db *Database, n node, cached bool) {
	t.Helper()
	if n == nil {
		return
	}
	if c := n.cache(); cached && c != nil && c.state.Load() < 2 {
		t.Fatalf("%T has no cached reference", n)
	}
	if got, want := appendRef(nil, n), nodeRefRef(n); !bytes.Equal(got, want) {
		t.Fatalf("%T: reference %x, reference rule %x", n, got, want)
	}
	switch nd := n.(type) {
	case *hashNode:
		if db != nil {
			checkRefs(t, db, resolved(db, nd), false) // decoded: nothing cached yet
		}
	case *extNode:
		checkRefs(t, db, nd.child, cached)
	case *branchNode:
		for _, c := range nd.children {
			checkRefs(t, db, c, cached)
		}
	}
}

// FuzzAppendRefVsReference: over random tries, every node's reference equals
// the reference rule's — fresh nodes, embedded ones, hashNodes and nodes
// decoded from a store — whether Hash, HashParallel or PersistTrie filled it,
// and the three agree on the root.
func FuzzAppendRefVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte("seed a larger trie"))
	f.Add(bytes.Repeat([]byte{0xa5}, 9))
	f.Add([]byte("18Z")) // a node encoding of exactly 32 bytes: hashed, not embedded
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		r := rand.New(rand.NewSource(seed))
		keys, vals := refPairs(r, 1+r.Intn(60))
		db, err := OpenDatabase(filepath.Join(t.TempDir(), "state.db"), 16)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		build := func() *Trie {
			tr := NewDB(db)
			applySerial(tr, keys, vals)
			return tr
		}

		fresh := build()
		checkRefs(t, nil, fresh.root, false) // computed and cached one node at a time
		want := EmptyRoot
		if fresh.root != nil {
			want = crypto.Sum256(encodeNodeRef(fresh.root))
		}
		if got := fresh.Hash(); got != want {
			t.Fatalf("Hash %x, reference rule %x", got, want)
		}

		hashed, parallel, persisted := build(), build(), build()
		if got := hashed.Hash(); got != want {
			t.Fatalf("Hash %x, reference rule %x", got, want)
		}
		checkRefs(t, nil, hashed.root, true)
		if got := parallel.HashParallel(4); got != want {
			t.Fatalf("HashParallel %x, reference rule %x", got, want)
		}
		checkRefs(t, nil, parallel.root, true)
		root := persisted.root
		b := db.NewBatch()
		if got := b.PersistTrie(persisted); got != want {
			t.Fatalf("PersistTrie %x, reference rule %x", got, want)
		}
		checkRefs(t, nil, root, true)
		if err := b.Commit(want); err != nil {
			t.Fatal(err)
		}

		// Reopened from the store: fresh paths over hashNodes and over copies
		// of decoded nodes, with the untouched subtrees decoded on the walk.
		reopened := NewAt(db, want)
		keys, vals = refPairs(r, r.Intn(8))
		applySerial(reopened, keys, vals)
		applySerial(fresh, keys, vals)
		if got, want := reopened.Hash(), fresh.Hash(); got != want {
			t.Fatalf("reopened trie hashes to %x, in-memory %x", got, want)
		}
		checkRefs(t, db, reopened.root, false)
	})
}

// TestRefCacheLostSwap: a writer that finds another mid-fill computes the
// reference itself, returns it, and leaves the cache to the other writer.
func TestRefCacheLostSwap(t *testing.T) {
	for _, n := range []node{
		&leafNode{key: []byte{1, 2}, val: []byte("short")},                         // embedded
		&leafNode{key: keybytesToNibbles(crypto.Keccak256(nil)), val: []byte("v")}, // hashed
	} {
		c := n.cache()
		c.state.Store(1) // another writer holds the slot
		want := nodeRefRef(n)
		if got := appendRef(nil, n); !bytes.Equal(got, want) {
			t.Fatalf("lost swap: reference %x, want %x", got, want)
		}
		if c.state.Load() != 1 || c.buf != [32]byte{} {
			t.Fatal("the losing writer touched the cache")
		}
		c.state.Store(0)
		appendRef(nil, n)
		if got, _ := c.appendTo(nil); !bytes.Equal(got, want) {
			t.Fatalf("cached reference %x, want %x", got, want)
		}
	}
}

// TestRefAllocs pins what a reference costs once the node keeps it: encoding
// a parent over a decoded branch of sixteen hash references, whose own
// reference is computed on the way, allocates nothing, and neither does
// encoding a branch over fresh children already hashed, nor hashing its trie
// again.
func TestRefAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	elems := make([][]byte, 17)
	for i := range elems[:16] {
		elems[i] = rlp.EncodeString(crypto.Keccak256([]byte{byte(i)}))
	}
	elems[16] = []byte{0x80}
	enc := rlp.EncodeList(elems...)
	const runs = 100
	parents := make([]node, runs+1) // AllocsPerRun calls once more to warm up
	for i := range parents {
		b, err := decodeNode(enc)
		if err != nil {
			t.Fatal(err)
		}
		parents[i] = &extNode{key: []byte{3}, child: b}
	}
	buf := make([]byte, 0, 1024)
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		buf = appendNode(buf[:0], parents[i])
		i++
	}); got != 0 {
		t.Errorf("encoding a parent over a decoded branch: %v allocations per run, pinned at 0", got)
	}
	if !bytes.Equal(buf, encodeNodeRef(parents[runs])) {
		t.Fatal("parent encodes differently from the reference rule")
	}

	tr := New()
	keys, vals := randomPairs(rand.New(rand.NewSource(2)), 64, 0)
	applySerial(tr, keys, vals)
	tr.Hash()
	if _, ok := tr.root.(*branchNode); !ok {
		t.Fatalf("root is a %T", tr.root)
	}
	if got := testing.AllocsPerRun(runs, func() { buf = appendNode(buf[:0], tr.root) }); got != 0 {
		t.Errorf("encoding a branch over hashed children: %v allocations per run, pinned at 0", got)
	}
	if got := testing.AllocsPerRun(runs, func() { tr.Hash() }); got != 0 {
		t.Errorf("hashing a hashed trie: %v allocations per run, pinned at 0", got)
	}
}

// TestPersistTrieReusesHashes: a trie hashed before it is persisted, one
// hashed and then updated, and one never hashed stage byte-identical
// records and return the same root, equal to the Hash taken before.
func TestPersistTrieReusesHashes(t *testing.T) {
	for _, pairs := range []int{1, 3, 400} { // 1: a root shorter than 32 bytes
		keys, vals := randomPairs(rand.New(rand.NewSource(int64(pairs))), pairs, 3)
		if pairs == 1 {
			vals[0] = []byte{1}
		}
		var files [][]byte
		var want [32]byte
		for v, prepare := range []func(*Trie){
			func(*Trie) {},
			func(tr *Trie) { tr.Hash() },
			func(tr *Trie) {
				val := tr.Get(keys[0])
				tr.Update(keys[0], []byte("overwritten"))
				tr.Hash()
				tr.Update(keys[0], val)
			},
		} {
			db := openTestDB(t, 0)
			tr := NewDB(db)
			applySerial(tr, keys, vals)
			prepare(tr)
			if v == 0 {
				ref := New()
				applySerial(ref, keys, vals)
				want = ref.Hash()
			}
			if root := persistTrie(t, db, tr); root != want {
				t.Fatalf("%d pairs, variant %d: PersistTrie %x, Hash %x", pairs, v, root, want)
			}
			file, err := db.Store().ReadFileForTest()
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		for v := range files[1:] {
			if !bytes.Equal(files[v+1], files[0]) {
				t.Fatalf("%d pairs: variant %d stages different records", pairs, v+1)
			}
		}
	}
}
