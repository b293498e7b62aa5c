package store

import (
	"bytes"
	"path/filepath"
	"testing"

	"blockpilot/internal/crypto"
)

// The store unit tests use a synthetic node format so the package stays
// independent of the trie codec (which lives above it): a node payload is
//
//	'E' || count(1) || count*32 bytes of child hashes || arbitrary blob
//
// and testEdges extracts the children, mirroring how trie.NodeEdges reports
// structural references. Anything not starting with 'E' has no edges.

func testEdges(enc []byte, has func([32]byte) bool) [][32]byte {
	if len(enc) < 2 || enc[0] != 'E' {
		return nil
	}
	n := int(enc[1])
	if len(enc) < 2+n*32 {
		return nil
	}
	out := make([][32]byte, 0, n)
	for i := 0; i < n; i++ {
		var h [32]byte
		copy(h[:], enc[2+i*32:])
		if has(h) {
			out = append(out, h)
		}
	}
	return out
}

// mkNode builds a synthetic node payload and returns (hash, payload).
func mkNode(blob []byte, children ...[32]byte) ([32]byte, []byte) {
	enc := []byte{'E', byte(len(children))}
	for _, c := range children {
		enc = append(enc, c[:]...)
	}
	enc = append(enc, blob...)
	return crypto.Sum256(enc), enc
}

func openTest(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path, Options{Edges: testEdges})
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s
}

// commitChain builds and commits a 3-node chain root→mid→leaf with a
// distinguishing blob, returning the hashes outermost first.
func commitChain(t *testing.T, s *Store, tag byte) [3][32]byte {
	t.Helper()
	leafH, leafEnc := mkNode([]byte{'l', tag})
	midH, midEnc := mkNode([]byte{'m', tag}, leafH)
	rootH, rootEnc := mkNode([]byte{'r', tag}, midH)
	b := s.NewBatch()
	b.Put(leafH, leafEnc)
	b.Put(midH, midEnc)
	b.Put(rootH, rootEnc)
	if err := b.Commit(rootH); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return [3][32]byte{rootH, midH, leafH}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "state.db"))
	defer s.Close()
	chain := commitChain(t, s, 1)
	for i, h := range chain {
		enc, err := s.Get(h)
		if err != nil {
			t.Fatalf("Get node %d: %v", i, err)
		}
		if crypto.Sum256(enc) != h {
			t.Fatalf("node %d: payload does not hash to its key", i)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Anchors(chain[0]) != 1 {
		t.Fatalf("root anchors = %d, want 1", s.Anchors(chain[0]))
	}
	if _, err := s.Get([32]byte{0xde, 0xad}); err == nil {
		t.Fatal("Get of absent hash succeeded")
	}
}

func TestRefcountSharing(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "state.db"))
	defer s.Close()

	// Two roots sharing one leaf: releasing the first must keep the shared
	// leaf alive, releasing the second must cascade it away.
	leafH, leafEnc := mkNode([]byte("shared"))
	rootAH, rootAEnc := mkNode([]byte("A"), leafH)
	rootBH, rootBEnc := mkNode([]byte("B"), leafH)

	b := s.NewBatch()
	b.Put(leafH, leafEnc)
	b.Put(rootAH, rootAEnc)
	if err := b.Commit(rootAH); err != nil {
		t.Fatal(err)
	}
	b = s.NewBatch()
	b.Put(rootBH, rootBEnc) // leaf deduplicated: already stored
	b.Put(leafH, leafEnc)
	if err := b.Commit(rootBH); err != nil {
		t.Fatal(err)
	}
	if refs, _ := s.Refs(leafH); refs != 2 {
		t.Fatalf("shared leaf refs = %d, want 2", refs)
	}

	if err := s.Release(rootAH); err != nil {
		t.Fatal(err)
	}
	if !s.Has(leafH) {
		t.Fatal("shared leaf pruned while root B still references it")
	}
	if s.Has(rootAH) {
		t.Fatal("released root A still stored")
	}
	if err := s.Release(rootBH); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("store not empty after releasing all roots: %d nodes", s.Len())
	}
	if err := s.Release(rootBH); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestAnchorMultiplicity(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "state.db"))
	defer s.Close()
	// The same root committed twice (e.g. an empty block) needs two
	// releases before pruning.
	chain := commitChain(t, s, 7)
	commitChain(t, s, 7)
	if got := s.Anchors(chain[0]); got != 2 {
		t.Fatalf("anchors = %d, want 2", got)
	}
	if err := s.Release(chain[0]); err != nil {
		t.Fatal(err)
	}
	if !s.Has(chain[2]) {
		t.Fatal("pruned after first of two releases")
	}
	if err := s.Release(chain[0]); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("store not empty: %d nodes", s.Len())
	}
}

func TestReopenRebuildsRefcounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.db")
	s := openTest(t, path)
	chainA := commitChain(t, s, 1)
	chainB := commitChain(t, s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, path)
	defer s.Close()
	if s.Len() != 6 {
		t.Fatalf("reopened Len = %d, want 6", s.Len())
	}
	// Pruning after reopen must behave exactly as before close.
	if err := s.Release(chainA[0]); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("after release, Len = %d, want 3", s.Len())
	}
	for _, h := range chainB {
		if !s.Has(h) {
			t.Fatal("chain B node pruned by chain A release")
		}
	}
	phantoms, err := s.Phantoms()
	if err != nil {
		t.Fatal(err)
	}
	if len(phantoms) != 0 {
		t.Fatalf("%d phantom nodes after reopen+release", len(phantoms))
	}
}

func TestCodeRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.db")
	s := openTest(t, path)
	code := []byte("contract bytecode")
	codeH := crypto.Sum256(code)
	rootH, rootEnc := mkNode([]byte("acct"))
	b := s.NewBatch()
	b.Put(rootH, rootEnc)
	b.PutCode(codeH, code)
	if err := b.Commit(rootH); err != nil {
		t.Fatal(err)
	}
	got, err := s.Code(codeH)
	if err != nil || !bytes.Equal(got, code) {
		t.Fatalf("Code = %q, %v", got, err)
	}
	// Code survives both pruning and reopen (never refcounted).
	if err := s.Release(rootH); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = openTest(t, path)
	defer s.Close()
	got, err = s.Code(codeH)
	if err != nil || !bytes.Equal(got, code) {
		t.Fatalf("Code after reopen = %q, %v", got, err)
	}
}

func TestBatchDedup(t *testing.T) {
	s := openTest(t, filepath.Join(t.TempDir(), "state.db"))
	defer s.Close()
	h, enc := mkNode([]byte("once"))
	b := s.NewBatch()
	b.Put(h, enc)
	b.Put(h, enc)
	if err := b.Commit(h); err != nil {
		t.Fatal(err)
	}
	if puts, want := s.Stats().Puts, uint64(1); puts != want {
		t.Fatalf("node staged twice in one batch written %d times", puts)
	}
	if size, want := s.Size(), int64(2*recOverhead+len(enc)); size != want {
		t.Fatalf("file is %d bytes, want one put record and a barrier (%d)", size, want)
	}
	before := s.Stats().Puts
	b = s.NewBatch()
	b.Put(h, enc)
	if err := b.Commit(h); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(h); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().Puts; after != before {
		t.Fatalf("puts counter moved on deduplicated batch: %d → %d", before, after)
	}
	if refs, _ := s.Refs(h); refs != 1 || s.Len() != 1 {
		t.Fatalf("after two commits and one release: refs %d, %d nodes; want 1, 1", refs, s.Len())
	}
}
