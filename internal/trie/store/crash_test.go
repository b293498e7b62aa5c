package store

import (
	"os"
	"path/filepath"
	"testing"
)

// The crash-recovery battery (satellite of ISSUE 10): a history of commits
// and releases is recorded, then the log is truncated at EVERY byte offset
// — modeling a kill at any moment of any append — and reopened. Recovery
// must land exactly on the last durable barrier: the live-root set of the
// longest barrier prefix that survived, no phantom nodes, every surviving
// root fully readable, and pruning behavior identical to a store that never
// crashed (refcounts rebuilt from the log). This mirrors internal/blockdb's
// torn-tail rebuild test one layer down the stack.

// barrierState is the expected store state after one durable barrier.
type barrierState struct {
	size  int64      // file size at the barrier
	roots [][32]byte // live roots (sorted)
	nodes int        // live node count
}

func snapshotState(t *testing.T, s *Store) barrierState {
	t.Helper()
	return barrierState{size: s.Size(), roots: s.LiveRoots(), nodes: s.Len()}
}

func sameRoots(a, b [][32]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCrashRecoveryEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.db")
	s := openTest(t, path)

	// History: three commits (one sharing nodes via dedup), one release —
	// five durable states including the empty store.
	states := []barrierState{snapshotState(t, s)}
	c1 := commitChain(t, s, 1)
	states = append(states, snapshotState(t, s))
	commitChain(t, s, 2)
	states = append(states, snapshotState(t, s))
	c3 := commitChain(t, s, 3)
	states = append(states, snapshotState(t, s))
	if err := s.Release(c1[0]); err != nil {
		t.Fatal(err)
	}
	states = append(states, snapshotState(t, s))
	full, err := s.ReadFileForTest()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		// Expected recovery target: the last barrier fully inside the cut.
		want := states[0]
		for _, st := range states {
			if st.size <= int64(cut) {
				want = st
			}
		}

		tornPath := filepath.Join(dir, "torn.db")
		if err := os.WriteFile(tornPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Open(tornPath, Options{Edges: testEdges})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}

		if rs.Size() != want.size {
			t.Fatalf("cut %d: recovered size %d, want truncation to barrier at %d", cut, rs.Size(), want.size)
		}
		if got := rs.LiveRoots(); !sameRoots(got, want.roots) {
			t.Fatalf("cut %d: recovered %d live roots, want %d", cut, len(got), len(want.roots))
		}
		if rs.Len() != want.nodes {
			t.Fatalf("cut %d: recovered %d nodes, want %d", cut, rs.Len(), want.nodes)
		}
		phantoms, err := rs.Phantoms()
		if err != nil {
			t.Fatalf("cut %d: Phantoms: %v", cut, err)
		}
		if len(phantoms) != 0 {
			t.Fatalf("cut %d: %d phantom nodes survived recovery", cut, len(phantoms))
		}
		// Every surviving root must be fully readable back to its leaves.
		for _, root := range rs.LiveRoots() {
			assertReadable(t, rs, root, cut)
		}
		rs.Close()
	}

	// Sanity: the final state has the expected shape (release pruned chain 1,
	// chains 2 and 3 live).
	final := states[len(states)-1]
	if len(final.roots) != 2 || final.nodes != 6 {
		t.Fatalf("history sanity: %d roots / %d nodes, want 2 / 6", len(final.roots), final.nodes)
	}
	_ = c3
}

// assertReadable walks a root's closure, failing on any missing node.
func assertReadable(t *testing.T, s *Store, root [32]byte, cut int) {
	t.Helper()
	seen := map[[32]byte]bool{}
	stack := [][32]byte{root}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[h] {
			continue
		}
		seen[h] = true
		enc, err := s.Get(h)
		if err != nil {
			t.Fatalf("cut %d: live root closure has unreadable node: %v", cut, err)
		}
		stack = append(stack, testEdges(enc, s.Has)...)
	}
}

// TestCrashDuringReleaseLeaksOnly models the one asymmetric crash: a torn
// release (dels written, barrier missing) must be discarded wholly — the
// root stays live and fully readable. Space may leak; state may not.
func TestCrashDuringReleaseLeaksOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.db")
	s := openTest(t, path)
	chain := commitChain(t, s, 9)
	sizeBeforeRelease := s.Size()
	if err := s.Release(chain[0]); err != nil {
		t.Fatal(err)
	}
	full, err := s.ReadFileForTest()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Cut inside the release batch: keep the dels, drop the barrier.
	for cut := int(sizeBeforeRelease) + 1; cut < len(full); cut++ {
		tornPath := filepath.Join(dir, "torn.db")
		if err := os.WriteFile(tornPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Open(tornPath, Options{Edges: testEdges})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rs.Anchors(chain[0]) != 1 {
			t.Fatalf("cut %d: root lost by torn release", cut)
		}
		assertReadable(t, rs, chain[0], cut)
		rs.Close()
	}
}
