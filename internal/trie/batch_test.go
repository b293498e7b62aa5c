package trie

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"blockpilot/internal/crypto"
)

// randomPairs generates n (key, value) pairs; keyLen 0 means 32-byte hashed
// keys (the state layout), otherwise variable-length keys to exercise
// extension splits and prefix-of-key edges.
func randomPairs(r *rand.Rand, n, keyLen int) ([][]byte, [][]byte) {
	keys := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range keys {
		l := keyLen
		if l == 0 {
			l = 32
		} else {
			l = 1 + r.Intn(keyLen)
		}
		k := make([]byte, l)
		r.Read(k)
		if keyLen != 0 {
			// Narrow the alphabet so paths share prefixes aggressively.
			for j := range k {
				k[j] &= 0x13
			}
		}
		v := make([]byte, 1+r.Intn(40))
		r.Read(v)
		keys[i] = k
		vals[i] = v
	}
	return keys, vals
}

// applySerial is the reference semantics Batch must reproduce.
func applySerial(t *Trie, keys, vals [][]byte) {
	for i := range keys {
		t.Update(keys[i], vals[i])
	}
}

func TestBatchMatchesUpdateLoop(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 40; round++ {
		keyLen := 0
		if round%2 == 1 {
			keyLen = 6 // short, collision-heavy keys
		}
		n := 1 + r.Intn(200)
		keys, vals := randomPairs(r, n, keyLen)

		// Seed both tries with a shared pre-state.
		pkeys, pvals := randomPairs(r, r.Intn(100), keyLen)
		serial, batched := New(), New()
		applySerial(serial, pkeys, pvals)
		applySerial(batched, pkeys, pvals)

		// Sprinkle deletes (empty values) and duplicate keys into the batch.
		for i := range keys {
			switch r.Intn(10) {
			case 0:
				vals[i] = nil // delete
			case 1:
				if len(pkeys) > 0 {
					keys[i] = pkeys[r.Intn(len(pkeys))] // overwrite/delete pre-state
				}
			case 2:
				if i > 0 {
					keys[i] = keys[r.Intn(i)] // duplicate: last write wins
				}
			}
		}

		applySerial(serial, keys, vals)
		batched.Batch(keys, vals)

		if sh, bh := serial.Hash(), batched.Hash(); sh != bh {
			t.Fatalf("round %d (n=%d keyLen=%d): batch root %x != serial root %x",
				round, n, keyLen, bh, sh)
		}
		// Value-level parity, not just root parity.
		for i := range keys {
			want := serial.Get(keys[i])
			got := batched.Get(keys[i])
			if string(want) != string(got) {
				t.Fatalf("round %d: Get(%x) = %x, want %x", round, keys[i], got, want)
			}
		}
	}
}

func TestBatchEmptyAndSingle(t *testing.T) {
	tr := New()
	tr.Batch(nil, nil)
	if tr.Hash() != EmptyRoot {
		t.Fatal("empty batch changed the empty root")
	}
	tr.Batch([][]byte{[]byte("k")}, [][]byte{[]byte("v")})
	want := New()
	want.Update([]byte("k"), []byte("v"))
	if tr.Hash() != want.Hash() {
		t.Fatal("single-item batch diverges from Update")
	}
	// Deleting the only key via a batch empties the trie again.
	tr.Batch([][]byte{[]byte("k")}, [][]byte{nil})
	if tr.Hash() != EmptyRoot {
		t.Fatal("batch delete did not restore the empty root")
	}
}

func TestBatchMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Batch with len(keys) != len(vals) did not panic")
		}
	}()
	New().Batch([][]byte{[]byte("k")}, nil)
}

func TestBatchSharesUntouchedSubtrees(t *testing.T) {
	// Persistence invariant: a batch on a copy must not disturb the original.
	orig := New()
	keys, vals := randomPairs(rand.New(rand.NewSource(9)), 100, 0)
	applySerial(orig, keys, vals)
	before := orig.Hash()

	cp := orig.Copy()
	nk, nv := randomPairs(rand.New(rand.NewSource(10)), 50, 0)
	cp.Batch(nk, nv)

	if orig.Hash() != before {
		t.Fatal("Batch on a copy mutated the original trie")
	}
}

func TestHashParallelMatchesHash(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 17, 100, 500, 2000} {
		tr := New()
		keys, vals := randomPairs(r, n, 0)
		applySerial(tr, keys, vals)
		want := tr.Hash()
		for _, workers := range []int{1, 2, 4, 8} {
			// Fresh structural copy so each worker count starts from cold
			// caches on its own handle (nodes are shared; caches warm once).
			if got := tr.HashParallel(workers); got != want {
				t.Fatalf("n=%d workers=%d: HashParallel %x != Hash %x", n, workers, got, want)
			}
		}
	}
}

// TestConcurrentHashSharedSubtrees drives -race over the references nodes
// keep: copies sharing every subtree but one path, none hashed before, are
// hashed from sixteen goroutines released at once, eight of them through
// HashParallel. Shared nodes are filled by whichever worker wins, and every
// root — the losers' included — must equal the one an unshared trie of the
// same contents hashes to.
func TestConcurrentHashSharedSubtrees(t *testing.T) {
	keys, vals := randomPairs(rand.New(rand.NewSource(5)), 800, 0)
	diverge := func(tr *Trie, i int) *Trie {
		tr.Update(crypto.Keccak256([]byte(fmt.Sprintf("diverge-%d", i%4))), []byte{byte(i % 4)})
		return tr
	}
	var want [4][32]byte
	for i := range want {
		tr := New()
		applySerial(tr, keys, vals)
		want[i] = diverge(tr, i).Hash()
	}
	base := New()
	applySerial(base, keys, vals)

	start := make(chan struct{})
	var wg sync.WaitGroup
	roots := make([][32]byte, 16)
	copies := make([]*Trie, len(roots))
	for i := range copies {
		copies[i] = diverge(base.Copy(), i)
		wg.Add(1)
		go func(i int, cp *Trie) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				roots[i] = cp.Hash()
			} else {
				roots[i] = cp.HashParallel(4)
			}
		}(i, copies[i])
	}
	close(start)
	wg.Wait()
	for i, root := range roots {
		if root != want[i%4] {
			t.Fatalf("copy %d: root %x, want %x", i, root, want[i%4])
		}
	}
	checkRefs(t, nil, copies[1].root, true)
}

func BenchmarkTrieUpdateLoop(b *testing.B) {
	keys, vals := randomPairs(rand.New(rand.NewSource(1)), 1000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New()
		applySerial(tr, keys, vals)
		_ = tr.Hash()
	}
}

func BenchmarkTrieBatch(b *testing.B) {
	keys, vals := randomPairs(rand.New(rand.NewSource(1)), 1000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New()
		tr.Batch(keys, vals)
		_ = tr.Hash()
	}
}

func BenchmarkTrieHashSerial(b *testing.B) {
	keys, vals := randomPairs(rand.New(rand.NewSource(1)), 5000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := New()
		tr.Batch(keys, vals)
		b.StartTimer()
		_ = tr.Hash()
	}
}

func BenchmarkTrieHashParallel8(b *testing.B) {
	keys, vals := randomPairs(rand.New(rand.NewSource(1)), 5000, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := New()
		tr.Batch(keys, vals)
		b.StartTimer()
		_ = tr.HashParallel(8)
	}
}

// TestBatchAllocs pins what one 256-key batch into a populated trie
// allocates: the nodes on the new paths and a leaf's merge — not the nibble
// slab and the item array, which are reused from batch to batch, and no copy
// of the items per trie level, which would add one allocation for every
// branch the batch passes through.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	key := func(i int) []byte { return crypto.Keccak256([]byte{byte(i), byte(i >> 8)}) }
	base := New()
	var keys, vals [][]byte
	for i := 0; i < 4096; i++ {
		keys, vals = append(keys, key(i)), append(vals, []byte{byte(i), 1})
	}
	base.Batch(keys, vals)
	keys, vals = keys[:0], vals[:0]
	for i := 0; i < 256; i++ { // half the keys are new, one in sixteen a delete
		keys = append(keys, key(4096-128+i))
		val := []byte{byte(i), 2}
		if i%16 == 0 {
			val = nil
		}
		vals = append(vals, val)
	}
	// 880 since the slab and the item array are pooled; 882 at the change
	// that made the recursion go by depth; the copying recursion before it
	// made 1 474.
	if got := testing.AllocsPerRun(20, func() { base.Copy().Batch(keys, vals) }); got > 880 {
		t.Errorf("Batch of 256 keys: %v allocations, pinned at 880", got)
	}
}
