package trie

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
)

// TestAppendSubtreeMatchesBuild holds the hash-only builder equal to the
// node-building one it shadows (buildSubtree, then Hash) on random key sets:
// keys of mixed lengths, so some end inside a branch (the branch-value case),
// shared prefixes (extensions), and values short enough that whole subtrees
// embed in their parent instead of being hashed.
func TestAppendSubtreeMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for round := 0; round < 300; round++ {
		n := 1 + r.Intn(40)
		if round%10 == 0 {
			n = 200 + r.Intn(300)
		}
		seen := map[string]bool{}
		var items []kv
		for len(items) < n {
			key := make([]byte, 1+r.Intn(3))
			r.Read(key)
			if round%3 == 0 {
				key[0] &= 0x01 // crowd the keys under two top-level nibbles
			}
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			val := make([]byte, 1+r.Intn(4))
			if r.Intn(3) == 0 {
				val = make([]byte, 30+r.Intn(80))
			}
			r.Read(val)
			items = append(items, kv{key: keybytesToNibbles(key), val: val})
		}
		slices.SortFunc(items, func(a, b kv) int { return bytes.Compare(a.key, b.key) })

		want := (&Trie{root: buildSubtree(nil, items, 0)}).Hash()
		prefix := []byte("kept")
		enc := appendSubtree(append([]byte(nil), prefix...), items, 0)
		if !bytes.HasPrefix(enc, prefix) {
			t.Fatalf("round %d: appendSubtree changed the bytes before it", round)
		}
		if got := crypto.Sum256(enc[len(prefix):]); got != want {
			t.Fatalf("round %d (%d keys): hash-only root %x, built trie %x", round, n, got, want)
		}
	}
}

// TestListRootMatchesUpdateLoop: ListRoot is the root of the rlp(index) →
// item trie an Update loop builds, for list lengths on both sides of every
// index-key width and for items short enough to embed.
func TestListRootMatchesUpdateLoop(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 16, 127, 128, 129, 255, 256, 257, 1000} {
		for _, maxLen := range []int{3, 200} {
			items := make([][]byte, n)
			tr := New()
			for i := range items {
				items[i] = make([]byte, 1+r.Intn(maxLen))
				r.Read(items[i])
				tr.Update(rlp.EncodeUint(uint64(i)), items[i])
			}
			got := ListRoot(n, func(dst []byte, i int) []byte { return append(dst, items[i]...) })
			if want := tr.Hash(); got != want {
				t.Errorf("%d items of up to %d bytes: ListRoot %x, Update loop %x", n, maxLen, got, want)
			}
		}
	}
}
