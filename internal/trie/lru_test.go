package trie

import (
	"container/list"
	"math/rand"
	"testing"
)

// lruRef is nodeLRU as it was before the slab — a map of list elements and a
// container/list, front = most recently used — kept as the eviction-order
// reference.
type lruRef struct {
	cap int
	m   map[[32]byte]*list.Element
	l   *list.List
}

type lruRefEntry struct {
	hash [32]byte
	n    node
}

func (c *lruRef) get(h [32]byte) (node, bool) {
	el, ok := c.m[h]
	if !ok {
		return nil, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*lruRefEntry).n, true
}

func (c *lruRef) add(h [32]byte, n node) {
	if el, ok := c.m[h]; ok {
		c.l.MoveToFront(el)
		el.Value.(*lruRefEntry).n = n
		return
	}
	c.m[h] = c.l.PushFront(&lruRefEntry{hash: h, n: n})
	for c.l.Len() > c.cap {
		back := c.l.Back()
		c.l.Remove(back)
		delete(c.m, back.Value.(*lruRefEntry).hash)
	}
}

func (c *lruRef) remove(h [32]byte) {
	if el, ok := c.m[h]; ok {
		c.l.Remove(el)
		delete(c.m, h)
	}
}

// TestNodeLRUOrder drives the slab LRU and the container/list reference with
// one random get/add/remove stream over a key space four times the capacity
// — a third of the keys sharing their first four bytes, so the table's
// clusters and its backward-shift delete are exercised — and requires the
// same answer to every get and, at every step, the same entries in the same
// recency order. A remove moves the slab's last entry into the hole, so the
// slab stays as long as the reference. A full cache must add without
// allocating.
func TestNodeLRUOrder(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		r := rand.New(rand.NewSource(int64(capacity)))
		keys := make([][32]byte, 4*capacity+3)
		nodes := make([]node, len(keys))
		for i := range keys {
			r.Read(keys[i][:])
			if i%3 == 0 {
				copy(keys[i][:4], "same")
			}
			nodes[i] = &leafNode{val: []byte{byte(i)}}
		}
		got := newNodeLRU(capacity)
		want := &lruRef{cap: capacity, m: map[[32]byte]*list.Element{}, l: list.New()}
		for step := 0; step < 4000; step++ {
			i := r.Intn(len(keys))
			switch op := r.Intn(6); {
			case op < 2:
				gn, gok := got.get(keys[i])
				wn, wok := want.get(keys[i])
				if gok != wok || gn != wn {
					t.Fatalf("cap %d step %d: get = (%v, %v), reference (%v, %v)", capacity, step, gn, gok, wn, wok)
				}
			case op == 2:
				got.remove(keys[i])
				want.remove(keys[i])
			default:
				n := nodes[r.Intn(len(nodes))]
				got.add(lruEntry{hash: keys[i], n: n})
				want.add(keys[i], n)
			}
			if n := len(got.slab) - 1; n != want.l.Len() {
				t.Fatalf("cap %d step %d: %d entries, reference %d", capacity, step, n, want.l.Len())
			}
			j := got.slab[0].next
			for el := want.l.Front(); el != nil; el = el.Next() {
				ref := el.Value.(*lruRefEntry)
				if e := got.slab[j]; j == 0 || e.hash != ref.hash || e.n != ref.n {
					t.Fatalf("cap %d step %d: recency order diverged from the reference", capacity, step)
				}
				j = got.slab[j].next
			}
			if j != 0 {
				t.Fatalf("cap %d step %d: slab list is longer than the reference", capacity, step)
			}
		}
		next := 0
		if allocs := testing.AllocsPerRun(100, func() {
			got.add(lruEntry{hash: keys[next%len(keys)], n: nodes[0]})
			next++
		}); allocs != 0 {
			t.Errorf("cap %d: add on a full cache allocates %v times, want 0", capacity, allocs)
		}
	}
}
