package store

import (
	"bytes"
	"path/filepath"
	"testing"
)

// FuzzNodeStore: random put/get/release/reopen sequences against a pure
// in-memory oracle. The oracle tracks the payloads
// and anchors and computes liveness as REACHABILITY from the anchored roots
// — the store computes it with incremental reference counts — and the two
// must agree exactly after every barrier (refcount GC ≡ reachability GC on
// the acyclic graphs commits can build). Reopens assert the log replay
// reconstructs the same state, and every Release hands Options.Pruned
// exactly the nodes that left the oracle's live set, each once.
//
// Each fuzz input byte stream drives a small op interpreter:
//
//	op % 16 ∈ [0,9]  — stage a node (children drawn from known hashes) and
//	                   commit it as a root
//	op % 16 ∈ [10,12] — release a live root (picked by the next byte)
//	op % 16 ∈ [13,14] — point Get/Has probes
//	op % 16 == 15     — close and reopen the store
func FuzzNodeStore(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x10, 0x21, 0x32, 0x0a, 0x01, 0x4f})
	f.Add([]byte{0x01, 0x02, 0x0f, 0x03, 0x1a, 0x00, 0x0f, 0x2a, 0x01, 0x0d})
	f.Add(bytes.Repeat([]byte{0x05, 0x1a, 0x0f}, 12))
	f.Add([]byte{0x09, 0x19, 0x29, 0x39, 0x49, 0x1a, 0x2a, 0x3a, 0x0f, 0x0d, 0x0e})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.db")
		var pruned [][32]byte
		opts := Options{Edges: testEdges, Pruned: func(h [32]byte) { pruned = append(pruned, h) }}
		s, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()

		// Oracle state.
		payloads := map[[32]byte][]byte{} // every hash ever stored
		edges := map[[32]byte][][32]byte{}
		anchors := map[[32]byte]int{}
		var known [][32]byte // hashes in creation order (children precede parents)

		live := func() map[[32]byte]bool {
			out := map[[32]byte]bool{}
			var stack [][32]byte
			for r, n := range anchors {
				if n > 0 {
					stack = append(stack, r)
				}
			}
			for len(stack) > 0 {
				h := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if out[h] {
					continue
				}
				out[h] = true
				stack = append(stack, edges[h]...)
			}
			return out
		}

		check := func(tag string) {
			t.Helper()
			want := live()
			if s.Len() != len(want) {
				t.Fatalf("%s: store has %d nodes, oracle %d", tag, s.Len(), len(want))
			}
			for h := range want {
				enc, err := s.Get(h)
				if err != nil {
					t.Fatalf("%s: oracle-live node missing: %v", tag, err)
				}
				if !bytes.Equal(enc, payloads[h]) {
					t.Fatalf("%s: payload mismatch for %x", tag, h[:4])
				}
			}
			phantoms, err := s.Phantoms()
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if len(phantoms) != 0 {
				t.Fatalf("%s: %d phantoms", tag, len(phantoms))
			}
		}

		i := 0
		next := func() (byte, bool) {
			if i >= len(data) {
				return 0, false
			}
			b := data[i]
			i++
			return b, true
		}

		for steps := 0; steps < 64; steps++ {
			op, ok := next()
			if !ok {
				break
			}
			switch {
			case op%16 <= 9: // commit one node as a root
				nChildren := int(op%16) % 4
				var children [][32]byte
				for c := 0; c < nChildren; c++ {
					pick, ok := next()
					if !ok || len(known) == 0 {
						break
					}
					children = append(children, known[int(pick)%len(known)])
				}
				blob := []byte{op, byte(steps), byte(len(known))}
				h, enc := mkNode(blob, children...)
				b := s.NewBatch()
				stored := s.Has(h)
				b.Put(h, enc)
				if err := b.Commit(h); err != nil {
					t.Fatal(err)
				}
				if !stored {
					// Effective edges: targets live at commit time. The
					// generator draws children from `known`, but a child may
					// have been pruned since — and a pruned node re-committed
					// later re-captures its edges. Mirror the store's has()
					// rule at every actual write.
					var eff [][32]byte
					for _, c := range children {
						if s.Has(c) {
							eff = append(eff, c)
						}
					}
					edges[h] = eff
				}
				if _, dup := payloads[h]; !dup {
					payloads[h] = enc
					known = append(known, h)
				}
				anchors[h]++
				check("commit")

			case op%16 <= 12: // release a live root
				pick, _ := next()
				var liveRoots [][32]byte
				for r, n := range anchors {
					if n > 0 {
						liveRoots = append(liveRoots, r)
					}
				}
				if len(liveRoots) == 0 {
					continue
				}
				// Deterministic pick: LiveRoots is sorted.
				roots := s.LiveRoots()
				r := roots[int(pick)%len(roots)]
				before := live()
				pruned = pruned[:0]
				if err := s.Release(r); err != nil {
					t.Fatalf("release of live root: %v", err)
				}
				anchors[r]--
				check("release")
				after, seen := live(), map[[32]byte]bool{}
				for _, h := range pruned {
					if seen[h] || !before[h] || after[h] {
						t.Fatalf("release handed Pruned %x: repeated %v, live before %v, live after %v", h[:4], seen[h], before[h], after[h])
					}
					seen[h] = true
				}
				if len(seen) != len(before)-len(after) {
					t.Fatalf("release handed Pruned %d nodes, %d left the live set", len(seen), len(before)-len(after))
				}

			case op%16 <= 14: // point probes
				pick, _ := next()
				if len(known) == 0 {
					continue
				}
				h := known[int(pick)%len(known)]
				want := live()[h]
				if s.Has(h) != want {
					t.Fatalf("Has(%x) = %v, oracle %v", h[:4], !want, want)
				}

			default: // close + reopen
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s, err = Open(path, opts)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				check("reopen")
			}
		}
	})
}
