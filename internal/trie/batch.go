// Batch insertion: the commit path's replacement for per-key Update loops.
//
// A sequential Update loop re-walks the path from the root for every key and
// re-allocates every branch node on a shared prefix once per key that passes
// through it. Batch sorts the keys once, groups them by nibble, and builds
// each shared subtree bottom-up exactly once, so a commit touching k keys
// under one branch allocates that branch a single time. Because an MPT is
// canonical — its shape is a pure function of its contents — the resulting
// trie is bit-identical to the Update loop (the parity suite in
// batch_test.go proves it on randomized key sets).
package trie

import (
	"bytes"
	"slices"
	"sort"
)

// kv is one pending insertion inside a batch: the key's remaining nibble
// path at the current recursion depth and its value.
type kv struct {
	key []byte // nibbles
	val []byte
}

// Batch applies all (keys[i], vals[i]) pairs to the trie at once. Semantics
// match a sequential Update loop: later duplicates win, and an empty or nil
// value deletes the key. Keys may arrive in any order.
func (t *Trie) Batch(keys, vals [][]byte) {
	if len(keys) != len(vals) {
		panic("trie: Batch called with len(keys) != len(vals)")
	}
	switch len(keys) {
	case 0:
		return
	case 1:
		t.Update(keys[0], vals[0])
		return
	}

	// Deduplicate (last write wins) and split into puts and deletes.
	last := make(map[string]int, len(keys))
	for i, k := range keys {
		last[string(k)] = i
	}
	puts := make([]kv, 0, len(last))
	var dels [][]byte
	size := 0
	for _, k := range keys {
		size += 2 * len(k)
	}
	slab := make([]byte, 0, size) // every put's nibbles, one allocation
	for i, k := range keys {
		if last[string(k)] != i {
			continue // overwritten later in the batch
		}
		if len(vals[i]) == 0 {
			dels = append(dels, k)
		} else {
			start := len(slab)
			slab = appendNibbles(slab, k)
			puts = append(puts, kv{key: slab[start:len(slab):len(slab)], val: vals[i]})
		}
	}
	slices.SortFunc(puts, func(a, b kv) int { return bytes.Compare(a.key, b.key) })

	t.root = batchInsert(t.db, t.root, puts)
	for _, k := range dels {
		t.Delete(k)
	}
}

// batchInsert returns a new subtree equal to n with all items stored. items
// must be sorted by nibble key and duplicate-free.
func batchInsert(db *Database, n node, items []kv) node {
	if len(items) == 0 {
		return n
	}
	if len(items) == 1 {
		return insert(db, n, items[0].key, items[0].val)
	}
	n = resolved(db, n)
	switch nd := n.(type) {
	case nil:
		return buildSubtree(db, items)

	case *leafNode:
		// Fold the existing leaf in as one more item; batch items win on an
		// equal key. The merged set stays sorted.
		merged := mergeLeaf(items, kv{key: nd.key, val: nd.val})
		return buildSubtree(db, merged)

	case *extNode:
		// How far do ALL items follow the extension's compressed path?
		cp := len(nd.key)
		for i := range items {
			if c := commonPrefixLen(nd.key, items[i].key); c < cp {
				cp = c
			}
		}
		if cp == len(nd.key) {
			// Every item continues below the extension: strip and recurse,
			// building the child subtree once.
			stripped := make([]kv, len(items))
			for i, it := range items {
				stripped[i] = kv{key: it.key[cp:], val: it.val}
			}
			return &extNode{key: nd.key, child: batchInsert(db, nd.child, stripped)}
		}
		// Some item diverges inside the extension: split it at cp into a
		// fresh branch (same shape rule as the single-key insert), then
		// distribute the items into that branch.
		b := &branchNode{}
		idx := nd.key[cp]
		if rest := nd.key[cp+1:]; len(rest) == 0 {
			b.children[idx] = nd.child
		} else {
			b.children[idx] = &extNode{key: append([]byte(nil), rest...), child: nd.child}
		}
		stripped := make([]kv, len(items))
		for i, it := range items {
			stripped[i] = kv{key: it.key[cp:], val: it.val}
		}
		out := batchIntoBranch(db, b, stripped)
		if cp > 0 {
			return &extNode{key: append([]byte(nil), nd.key[:cp]...), child: out}
		}
		return out

	case *branchNode:
		nb := &branchNode{children: nd.children, value: nd.value, hasValue: nd.hasValue}
		return batchIntoBranch(db, nb, items)
	}
	return n
}

// batchIntoBranch distributes sorted items into a freshly allocated (and
// therefore privately mutable) branch node: one recursion per distinct next
// nibble, so the branch is written once regardless of item count.
func batchIntoBranch(db *Database, b *branchNode, items []kv) node {
	i := 0
	// Sorted order puts the (unique) empty-key item first: it terminates at
	// this branch and becomes its value.
	if i < len(items) && len(items[i].key) == 0 {
		b.value, b.hasValue = items[i].val, true
		i++
	}
	for i < len(items) {
		nib := items[i].key[0]
		j := i
		for j < len(items) && items[j].key[0] == nib {
			j++
		}
		group := make([]kv, j-i)
		for g := i; g < j; g++ {
			group[g-i] = kv{key: items[g].key[1:], val: items[g].val}
		}
		b.children[nib] = batchInsert(db, b.children[nib], group)
		i = j
	}
	return b
}

// buildSubtree constructs the canonical subtree holding items (sorted,
// duplicate-free, len >= 1) with no pre-existing node underneath.
func buildSubtree(db *Database, items []kv) node {
	if len(items) == 1 {
		return &leafNode{key: append([]byte(nil), items[0].key...), val: items[0].val}
	}
	// Sorted order means the minimum pairwise common prefix is attained by
	// the first and last items.
	cp := commonPrefixLen(items[0].key, items[len(items)-1].key)
	if cp > 0 {
		stripped := make([]kv, len(items))
		for i, it := range items {
			stripped[i] = kv{key: it.key[cp:], val: it.val}
		}
		return &extNode{
			key:   append([]byte(nil), items[0].key[:cp]...),
			child: buildSubtree(db, stripped),
		}
	}
	return batchIntoBranch(db, &branchNode{}, items)
}

// mergeLeaf inserts extra into sorted items, keeping order; an existing item
// with the same key wins (the batch overwrites the old leaf).
func mergeLeaf(items []kv, extra kv) []kv {
	pos := sort.Search(len(items), func(i int) bool {
		return bytes.Compare(items[i].key, extra.key) >= 0
	})
	if pos < len(items) && bytes.Equal(items[pos].key, extra.key) {
		return items // batch value overwrites the leaf
	}
	merged := make([]kv, 0, len(items)+1)
	merged = append(merged, items[:pos]...)
	merged = append(merged, extra)
	merged = append(merged, items[pos:]...)
	return merged
}
