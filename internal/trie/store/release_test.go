package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestReleaseBetweenPutAndCommit: a batch stages a node the store already
// holds, the only root keeping that node alive is released, then the batch
// commits a root that references it. The node must be written again — Put
// once dropped it as "already stored" at staging time and the commit
// anchored a root whose child was gone.
func TestReleaseBetweenPutAndCommit(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "state.db"))
	defer s.Close()
	leafH, leafEnc := mkNode([]byte("balance as of eight blocks ago"))
	oldH, oldEnc := mkNode([]byte("old root"), leafH)
	b := s.NewBatch()
	b.Put(leafH, leafEnc)
	b.Put(oldH, oldEnc)
	if err := b.Commit(oldH); err != nil {
		t.Fatal(err)
	}

	newH, newEnc := mkNode([]byte("new root"), leafH)
	b = s.NewBatch()
	b.Put(leafH, leafEnc) // stored right now …
	b.Put(newH, newEnc)
	if err := s.Release(oldH); err != nil { // … and gone before the commit
		t.Fatal(err)
	}
	if s.Has(leafH) {
		t.Fatal("setup: releasing the old root did not prune the leaf")
	}
	if err := b.Commit(newH); err != nil {
		t.Fatal(err)
	}
	if !s.Has(leafH) {
		t.Fatal("the commit anchored a root whose child is gone")
	}
	assertReadable(t, s, newH, -1)
	if refs, _ := s.Refs(leafH); refs != 1 {
		t.Fatalf("leaf refs = %d, want 1 (the new root's edge)", refs)
	}
	if phantoms, err := s.Phantoms(); err != nil || len(phantoms) != 0 {
		t.Fatalf("Phantoms = %d, %v", len(phantoms), err)
	}
}

// storeState is everything a failed Release must leave untouched.
type storeState struct {
	size    int64
	nodes   int
	refs    map[[32]byte]int32
	anchors map[[32]byte]int
}

func stateOf(t *testing.T, s *Store, known [][32]byte) storeState {
	t.Helper()
	st := storeState{size: s.Size(), nodes: s.Len(), refs: map[[32]byte]int32{}, anchors: map[[32]byte]int{}}
	for _, h := range known {
		if refs, ok := s.Refs(h); ok {
			st.refs[h] = refs
		}
		if n := s.Anchors(h); n > 0 {
			st.anchors[h] = n
		}
	}
	if phantoms, err := s.Phantoms(); err != nil || len(phantoms) != 0 {
		t.Fatalf("Phantoms = %d, %v", len(phantoms), err)
	}
	return st
}

func (a storeState) equal(b storeState) bool {
	return a.size == b.size && a.nodes == b.nodes &&
		fmt.Sprint(a.refs) == fmt.Sprint(b.refs) && fmt.Sprint(a.anchors) == fmt.Sprint(b.anchors)
}

// commitVictim commits a chain, then the victim: a root over six branches
// (each over a leaf of its own and the chain's leaf) and the chain's middle.
// It returns the victim's root and every hash.
func commitVictim(t *testing.T, path string) (s *Store, root [32]byte, known [][32]byte) {
	t.Helper()
	s = openTest(t, path)
	shared := commitChain(t, s, 1)
	known = append(known, shared[:]...)
	b := s.NewBatch()
	var mids [][32]byte
	for i := 0; i < 6; i++ {
		leafH, leafEnc := mkNode([]byte{'x', byte(i)})
		midH, midEnc := mkNode([]byte{'y', byte(i)}, leafH, shared[2])
		b.Put(leafH, leafEnc)
		b.Put(midH, midEnc)
		mids = append(mids, midH)
		known = append(known, leafH, midH)
	}
	rootH, rootEnc := mkNode([]byte("victim"), append(mids, shared[1])...)
	b.Put(rootH, rootEnc)
	if err := b.Commit(rootH); err != nil {
		t.Fatal(err)
	}
	return s, rootH, append(known, rootH)
}

// TestReleaseFailureRollsBack fails a Release after its cascade has dropped
// counts in place — the write is refused (a read-only handle) — and requires
// the store to be exactly as before: every count, anchor, the node count and
// the file size. The same Release on the healthy handle must then succeed and
// leave the file byte-identical to a store that never failed.
func TestReleaseFailureRollsBack(t *testing.T) {
	t.Run("write", func(t *testing.T) {
		dir := t.TempDir()
		s, root, known := commitVictim(t, filepath.Join(dir, "failing.db"))
		defer s.Close()
		before := stateOf(t, s, known)

		healthy := s.f
		broken, err := os.OpenFile(s.Path(), os.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer broken.Close()
		s.f = broken
		if err := s.Release(root); err == nil {
			t.Fatal("Release on a broken handle succeeded")
		}
		s.f = healthy
		if after := stateOf(t, s, known); !before.equal(after) {
			t.Fatalf("failed Release left a trace:\nbefore %+v\nafter  %+v", before, after)
		}

		if err := s.Release(root); err != nil {
			t.Fatalf("Release after the fault cleared: %v", err)
		}
		clean, cleanRoot, _ := commitVictim(t, filepath.Join(dir, "clean.db"))
		defer clean.Close()
		if err := clean.Release(cleanRoot); err != nil {
			t.Fatal(err)
		}
		got, _ := s.ReadFileForTest()
		want, _ := clean.ReadFileForTest()
		if !bytes.Equal(got, want) {
			t.Fatal("file differs from a store whose Release never failed")
		}
		if !stateOf(t, s, known).equal(stateOf(t, clean, known)) {
			t.Fatal("counts differ from a store whose Release never failed")
		}
	})
}

// TestReleaseReadsNothing: the cascade walks the edges Commit recorded, so a
// Release on a handle that fails every read (opened write-only) succeeds,
// counts no disk read, and leaves the file bytes and every count as a Release
// on a healthy handle does.
func TestReleaseReadsNothing(t *testing.T) {
	dir := t.TempDir()
	s, root, known := commitVictim(t, filepath.Join(dir, "writeonly.db"))
	defer s.Close()
	writeOnly, err := os.OpenFile(s.Path(), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer writeOnly.Close()
	if _, err := writeOnly.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("setup: a read on the write-only handle succeeded")
	}

	healthy, reads := s.f, s.Stats().DiskReads
	s.f = writeOnly
	err = s.Release(root)
	s.f = healthy
	if err != nil {
		t.Fatalf("Release on a write-only handle: %v", err)
	}
	if got := s.Stats().DiskReads; got != reads {
		t.Fatalf("Release read %d payloads", got-reads)
	}

	clean, cleanRoot, _ := commitVictim(t, filepath.Join(dir, "clean.db"))
	defer clean.Close()
	if err := clean.Release(cleanRoot); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ReadFileForTest()
	want, _ := clean.ReadFileForTest()
	if !bytes.Equal(got, want) {
		t.Fatal("file differs from a store that released on a healthy handle")
	}
	if !stateOf(t, s, known).equal(stateOf(t, clean, known)) {
		t.Fatal("counts differ from a store that released on a healthy handle")
	}
}

// TestCommitFailureRollsBack: Commit enters its nodes and codes before the
// write (that is its dedup); a refused write must take them out again, and
// the same batch must commit cleanly afterwards.
func TestCommitFailureRollsBack(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "state.db"))
	defer s.Close()
	chain := commitChain(t, s, 1)
	leafH, leafEnc := mkNode([]byte("new leaf"))
	rootH, rootEnc := mkNode([]byte("new root"), leafH, chain[1])
	code := []byte("code")
	codeH := [32]byte{0xc0, 0xde}
	known := append(chain[:], leafH, rootH)
	b := s.NewBatch()
	b.Put(leafH, leafEnc)
	b.Put(rootH, rootEnc)
	b.PutCode(codeH, code)
	before := stateOf(t, s, known)

	healthy := s.f
	readOnly, err := os.OpenFile(s.Path(), os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	s.f = readOnly
	if err := b.Commit(rootH); err == nil {
		t.Fatal("Commit on a read-only handle succeeded")
	}
	s.f = healthy
	if after := stateOf(t, s, known); !before.equal(after) {
		t.Fatalf("failed Commit left a trace:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, err := s.Code(codeH); err == nil {
		t.Fatal("failed Commit left its code behind")
	}
	if err := b.Commit(rootH); err != nil {
		t.Fatal(err)
	}
	if refs, _ := s.Refs(chain[1]); refs != 2 || s.Len() != 5 {
		t.Fatalf("after the retry: shared node refs %d, %d nodes; want 2, 5", refs, s.Len())
	}
	if got, err := s.Code(codeH); err != nil || !bytes.Equal(got, code) {
		t.Fatalf("Code after the retry = %q, %v", got, err)
	}
	assertReadable(t, s, rootH, -1)
}

// releaseRef is Release as it was before the counts moved into the index: the
// cascade is planned against a scratch map of counts (negative = dead), every
// dead node is read back, and nothing is touched until the records are
// written. It is the parity reference for the in-place cascade.
func releaseRef(s *Store, root [32]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.roots[root] == 0 {
		return fmt.Errorf("%w: %x", ErrNotLiveRoot, root)
	}
	var dead [][32]byte
	scratch := make(map[[32]byte]int32)
	refsOf := func(h [32]byte) (int32, bool) {
		if r, ok := scratch[h]; ok {
			return r, true
		}
		j := s.idx.find(&h)
		return s.idx.slab[j].refs, j != 0
	}
	has := func(h [32]byte) bool {
		if r, ok := scratch[h]; ok && r < 0 {
			return false
		}
		return s.idx.find(&h) != 0
	}
	var stack [][32]byte
	dec := func(h [32]byte) {
		r, ok := refsOf(h)
		if !ok {
			return
		}
		r--
		scratch[h] = r
		if r == 0 {
			stack = append(stack, h)
		}
	}
	dec(root)
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		j := s.idx.find(&h)
		if j == 0 {
			continue
		}
		enc, err := s.readPayload(s.idx.slab[j].at(), nil)
		if err != nil {
			return err
		}
		scratch[h] = -1
		dead = append(dead, h)
		for _, child := range s.opts.Edges(enc, has) {
			dec(child)
		}
	}
	var buf []byte
	for _, h := range dead {
		buf = appendRecord(buf, recDel, h, nil)
	}
	buf = appendRecord(buf, recRelease, root, nil)
	if err := s.appendBarrier(buf); err != nil {
		return err
	}
	s.dropAnchor(root)
	for h, r := range scratch {
		j := s.idx.find(&h)
		switch {
		case j == 0:
		case r < 0:
			s.idx.remove(j)
			s.dels.Add(1)
		default:
			s.idx.slab[j].refs = r
		}
	}
	return nil
}

// TestReleaseMatchesReference drives two stores through one random history of
// commits, releases and reopens — one pruning with Release, the other with
// releaseRef — and requires, after every step, the same file bytes, the same
// count on every node ever written and the same number of pruned nodes.
// Batches follow the staging contract (children are live or staged earlier in
// the batch), re-stage stored nodes, stage nodes twice and re-anchor live
// roots.
func TestReleaseMatchesReference(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(26))
	got, ref := openTest(t, filepath.Join(dir, "got.db")), openTest(t, filepath.Join(dir, "ref.db"))
	defer func() { got.Close(); ref.Close() }()
	payloads := map[[32]byte][]byte{}
	var known [][32]byte

	for step := 0; step < 400; step++ {
		switch op := r.Intn(10); {
		case op < 6: // commit
			var pool [][32]byte // live now, or staged in this batch
			for _, h := range known {
				if got.Has(h) {
					pool = append(pool, h)
				}
			}
			gb, rb := got.NewBatch(), ref.NewBatch()
			put := func(h [32]byte) {
				gb.Put(h, payloads[h])
				rb.Put(h, payloads[h])
			}
			var root [32]byte
			for n := 1 + r.Intn(6); n > 0; n-- {
				var children [][32]byte
				for c := r.Intn(5); c > 0 && len(pool) > 0; c-- {
					children = append(children, pool[r.Intn(len(pool))])
				}
				h, enc := mkNode([]byte{byte(step), byte(step >> 8), byte(n)}, children...)
				payloads[h] = enc
				known = append(known, h)
				put(h)
				if r.Intn(4) == 0 {
					put(h) // twice in one batch
				}
				pool = append(pool, h)
				root = h
			}
			if r.Intn(3) == 0 {
				put(pool[r.Intn(len(pool))]) // already stored, or staged above
			}
			if roots := got.LiveRoots(); len(roots) > 0 && r.Intn(8) == 0 {
				root = roots[r.Intn(len(roots))] // a second anchor on a live root
			}
			if err := gb.Commit(root); err != nil {
				t.Fatal(err)
			}
			if err := rb.Commit(root); err != nil {
				t.Fatal(err)
			}
		case op < 9: // release
			roots := got.LiveRoots()
			if len(roots) == 0 {
				continue
			}
			root := roots[r.Intn(len(roots))]
			if err := got.Release(root); err != nil {
				t.Fatal(err)
			}
			if err := releaseRef(ref, root); err != nil {
				t.Fatal(err)
			}
		default: // reopen: rebuildRefs must hand both cascades the same counts
			got.Close()
			ref.Close()
			got, ref = openTest(t, got.Path()), openTest(t, ref.Path())
		}

		gotBytes, _ := got.ReadFileForTest()
		refBytes, _ := ref.ReadFileForTest()
		if !bytes.Equal(gotBytes, refBytes) {
			t.Fatalf("step %d: file bytes differ from the reference", step)
		}
		if g, w := got.Stats().Dels, ref.Stats().Dels; g != w {
			t.Fatalf("step %d: %d nodes pruned, reference %d", step, g, w)
		}
		if got.Len() != ref.Len() {
			t.Fatalf("step %d: %d live nodes, reference %d", step, got.Len(), ref.Len())
		}
		for _, h := range known {
			gr, gok := got.Refs(h)
			wr, wok := ref.Refs(h)
			if gr != wr || gok != wok {
				t.Fatalf("step %d: refs(%x) = %d/%v, reference %d/%v", step, h[:4], gr, gok, wr, wok)
			}
		}
	}
	if got.Stats().Dels == 0 || got.Len() == 0 {
		t.Fatalf("history exercised nothing: %d pruned, %d live", got.Stats().Dels, got.Len())
	}
}

// TestReleaseAllocs: what a Release allocates does not depend on how many
// nodes it prunes — its undo log, dead list, stack and record buffer are the
// store's, sized by the releases before it. (The extractor here reuses its
// result, as the trie's does; testEdges allocates per node.)
func TestReleaseAllocs(t *testing.T) {
	var edges [][32]byte
	s, err := Open(filepath.Join(t.TempDir(), "state.db"), Options{Edges: func(enc []byte, has func([32]byte) bool) [][32]byte {
		edges = edges[:0]
		for i := 0; len(enc) >= 2 && enc[0] == 'E' && i < int(enc[1]); i++ {
			if h := [32]byte(enc[2+32*i:]); has(h) {
				edges = append(edges, h)
			}
		}
		return edges
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// tree commits root → 8 branches → fan leaves each, all its own.
	tree := func(tag byte, fan int) [32]byte {
		b := s.NewBatch()
		var mids [][32]byte
		for m := 0; m < 8; m++ {
			var leaves [][32]byte
			for l := 0; l < fan; l++ {
				h, enc := mkNode([]byte{tag, byte(m), byte(l)})
				b.Put(h, enc)
				leaves = append(leaves, h)
			}
			h, enc := mkNode([]byte{tag, byte(m)}, leaves...)
			b.Put(h, enc)
			mids = append(mids, h)
		}
		h, enc := mkNode([]byte{tag}, mids...)
		b.Put(h, enc)
		if err := b.Commit(h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Mallocs counts the whole process, and a collection that runs inside a
	// Release allocates on its own account: at GOMAXPROCS=8 one run in thirty
	// read one or two allocations more, and none did with the collector off.
	// So the rounds run on two Ps with the collector off.
	procs := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(procs)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Commit and release in turn, so each release refills the slab positions
	// the next commit takes; the first round of each size is the warm-up.
	var perRelease [2]uint64
	var ms runtime.MemStats
	for i, fan := range []int{4, 128} {
		for n := 0; n < 4; n++ {
			root := tree(byte(16*i+n), fan)
			dels := s.Stats().Dels
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if err := s.Release(root); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			perRelease[i] = ms.Mallocs - before
			if got, want := s.Stats().Dels-dels, uint64(1+8+8*fan); got != want {
				t.Fatalf("fan %d: %d nodes pruned, want %d", fan, got, want)
			}
		}
	}
	if perRelease[0] != perRelease[1] || perRelease[1] > 1 {
		t.Fatalf("Release allocates %d times for 41 dead nodes and %d for 1033: want the same small constant", perRelease[0], perRelease[1])
	}
}
