package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"blockpilot/internal/telemetry"
)

func openTestDB(t *testing.T, cacheNodes int) *Database {
	t.Helper()
	db, err := OpenDatabase(filepath.Join(t.TempDir(), "state.db"), cacheNodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func persistTrie(t *testing.T, db *Database, tr *Trie) [32]byte {
	t.Helper()
	b := db.NewBatch()
	root := b.PersistTrie(tr)
	if err := b.Commit(root); err != nil {
		t.Fatal(err)
	}
	return root
}

// randomKV derives a deterministic key/value population with duplicates and
// empty-value deletes mixed in.
func randomKV(r *rand.Rand, n int) (keys, vals [][]byte) {
	for i := 0; i < n; i++ {
		k := make([]byte, 1+r.Intn(6))
		r.Read(k)
		var v []byte
		if r.Intn(8) != 0 { // 1-in-8 is a delete
			v = make([]byte, 1+r.Intn(40))
			r.Read(v)
		}
		keys = append(keys, k)
		vals = append(vals, v)
	}
	return
}

// TestDiskTrieParity interleaves mutations and persist cycles on a
// disk-backed trie and checks it stays bit-identical to a purely in-memory
// trie fed the same operations: same root, same point reads, same
// iteration.
func TestDiskTrieParity(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := openTestDB(t, 64) // tiny cache: force store reads mid-walk
	mem := New()
	disk := NewDB(db)
	written := map[string][]byte{}

	for round := 0; round < 12; round++ {
		keys, vals := randomKV(r, 60)
		for i := range keys {
			mem.Update(keys[i], vals[i])
			disk.Update(keys[i], vals[i])
			if len(vals[i]) == 0 {
				delete(written, string(keys[i]))
			} else {
				written[string(keys[i])] = vals[i]
			}
		}
		if mh, dh := mem.Hash(), disk.Hash(); mh != dh {
			t.Fatalf("round %d: root diverged before persist", round)
		}
		persistTrie(t, db, disk) // collapses disk's root to a hashNode
		if mh, dh := mem.Hash(), disk.Hash(); mh != dh {
			t.Fatalf("round %d: root diverged after persist", round)
		}
	}

	for k, v := range written {
		if got := disk.Get([]byte(k)); !bytes.Equal(got, v) {
			t.Fatalf("disk Get(%x) = %x, want %x", k, got, v)
		}
	}
	if disk.Get([]byte("never-written-key")) != nil {
		t.Fatal("disk Get of absent key returned a value")
	}

	memIter := map[string][]byte{}
	mem.ForEach(func(k, v []byte) bool { memIter[string(k)] = append([]byte(nil), v...); return true })
	diskIter := map[string][]byte{}
	disk.ForEach(func(k, v []byte) bool { diskIter[string(k)] = append([]byte(nil), v...); return true })
	if len(memIter) != len(diskIter) || len(memIter) != len(written) {
		t.Fatalf("iteration sizes: mem %d, disk %d, written %d", len(memIter), len(diskIter), len(written))
	}
	for k, v := range memIter {
		if !bytes.Equal(diskIter[k], v) {
			t.Fatalf("iteration mismatch at %x", k)
		}
	}
	if mem.Len() != disk.Len() {
		t.Fatalf("Len: mem %d, disk %d", mem.Len(), disk.Len())
	}
}

// TestDiskTrieBatchParity runs the batch commit path (the state layer's
// path) across persist boundaries against the Update loop.
func TestDiskTrieBatchParity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := openTestDB(t, 32)
	mem := New()
	disk := NewDB(db)
	for round := 0; round < 10; round++ {
		keys, vals := randomKV(r, 80)
		for i := range keys {
			mem.Update(keys[i], vals[i])
		}
		disk.Batch(keys, vals)
		persistTrie(t, db, disk)
		if mem.Hash() != disk.Hash() {
			t.Fatalf("round %d: batch/disk root diverged", round)
		}
	}
}

// TestDiskTrieReopen persists a trie, drops every in-memory handle, reopens
// the database, and reads the whole trie back through NewAt — by iteration
// and by point lookups against the persisted root.
func TestDiskTrieReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.db")
	db, err := OpenDatabase(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewDB(db)
	want := map[string][]byte{}
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("value-%d", i*i))
		tr.Update(k, v)
		want[string(k)] = v
	}
	root := persistTrie(t, db, tr)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDatabase(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.HasRoot(root) {
		t.Fatal("persisted root not live after reopen")
	}
	got := NewAt(db2, root)
	if got.Hash() != root {
		t.Fatal("reopened root hash mismatch")
	}
	n := 0
	got.ForEach(func(k, v []byte) bool {
		if !bytes.Equal(want[string(k)], v) {
			t.Fatalf("reopened value mismatch at %s", k)
		}
		n++
		return true
	})
	if n != len(want) {
		t.Fatalf("reopened iteration visited %d keys, want %d", n, len(want))
	}
	for i := 0; i < 500; i += 50 {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if val := got.Get(k); !bytes.Equal(val, want[string(k)]) {
			t.Fatalf("reopened Get mismatch for %s", k)
		}
	}
}

// TestDiskTriePruning commits a chain of versions and releases the old
// roots: the store must shrink to (approximately) one version's nodes and
// the surviving version must stay fully readable.
func TestDiskTriePruning(t *testing.T) {
	db := openTestDB(t, 0)
	tr := NewDB(db)
	var roots [][32]byte
	for v := 0; v < 20; v++ {
		for i := 0; i < 50; i++ {
			tr.Update([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("v%d-%d", v, i)))
		}
		roots = append(roots, persistTrie(t, db, tr))
	}
	grown := db.Stats().Nodes
	for _, r := range roots[:len(roots)-1] {
		if err := db.Release(r); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Stats().Nodes
	if after >= grown/2 {
		t.Fatalf("pruning released %d → %d nodes; stale versions not collected", grown, after)
	}
	// Latest version intact.
	latest := NewAt(db, roots[len(roots)-1])
	for i := 0; i < 50; i++ {
		want := fmt.Sprintf("v19-%d", i)
		if got := latest.Get([]byte(fmt.Sprintf("key-%03d", i))); string(got) != want {
			t.Fatalf("after pruning, key-%03d = %q, want %q", i, got, want)
		}
	}
	phantoms, err := db.Store().Phantoms()
	if err != nil {
		t.Fatal(err)
	}
	if len(phantoms) != 0 {
		t.Fatalf("%d phantoms after pruning", len(phantoms))
	}
}

// TestReleaseTimed: with telemetry on, each Release of a stored root is one
// observation of blockpilot_state_release_ns; the empty root, which is never
// stored, is none.
func TestReleaseTimed(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	db := openTestDB(t, 0)
	tr := NewDB(db)
	var roots [][32]byte
	for v := 0; v < 3; v++ {
		tr.Update([]byte("key"), []byte{byte(v)})
		roots = append(roots, persistTrie(t, db, tr))
	}
	count := func() uint64 {
		return telemetry.TakeSnapshot().Histogram("blockpilot_state_release_ns").Count
	}
	before := count()
	for _, r := range append(roots[:2], EmptyRoot) {
		if err := db.Release(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := count() - before; got != 2 {
		t.Fatalf("%d releases observed, want 2", got)
	}
}

// TestMissingNodePanics: resolving through a released root must fail loudly
// with MissingNodeError, not return silent emptiness.
func TestMissingNodePanics(t *testing.T) {
	db := openTestDB(t, 2)
	tr := NewDB(db)
	for i := 0; i < 200; i++ {
		tr.Update([]byte(fmt.Sprintf("key-%03d", i)), []byte("x"))
	}
	root := persistTrie(t, db, tr)
	stale := NewAt(db, root)
	if err := db.Release(root); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("read through a pruned root did not panic")
		}
		if _, ok := r.(*MissingNodeError); !ok {
			panic(r)
		}
	}()
	// The tiny cache (2 nodes) cannot mask the pruned store.
	stale.ForEach(func(k, v []byte) bool { return true })
	t.Fatal("unreachable")
}
