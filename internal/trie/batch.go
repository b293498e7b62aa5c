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
	"cmp"
	"slices"
	"sort"
)

// kv is one pending item of a batch: the key's full nibble path, its value
// (empty: a delete) and its place in the batch. The recursion reads the path
// from its depth on.
type kv struct {
	key []byte // nibbles
	val []byte
	at  int
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

	size := 0
	for _, k := range keys {
		size += 2 * len(k)
	}
	slab := make([]byte, 0, size) // every key's nibbles, one allocation
	items := make([]kv, len(keys))
	for i, k := range keys {
		start := len(slab)
		slab = appendNibbles(slab, k)
		items[i] = kv{key: slab[start:len(slab):len(slab)], val: vals[i], at: i}
	}
	// Deduplicate: a stable sort — by key, then place — keeps each key's writes
	// in batch order, and the last of each run wins: a delete at once, a put
	// compacted in place for the one bottom-up insert. The keys are unique by
	// then, so the order of the two cannot change the (canonical) trie.
	slices.SortFunc(items, func(a, b kv) int { return cmp.Or(bytes.Compare(a.key, b.key), cmp.Compare(a.at, b.at)) })
	puts := items[:0]
	for i, it := range items {
		switch {
		case i+1 < len(items) && bytes.Equal(it.key, items[i+1].key): // overwritten later in the batch
		case len(it.val) == 0:
			t.root, _ = remove(t.db, t.root, it.key)
		default:
			puts = append(puts, it)
		}
	}
	t.root = batchInsert(t.db, t.root, puts, 0)
}

// batchInsert returns a new subtree equal to n, the node at depth d, with all
// items stored. items must be sorted by nibble key, duplicate-free, and share
// their first d nibbles.
func batchInsert(db *Database, n node, items []kv, d int) node {
	if len(items) == 0 {
		return n
	}
	if len(items) == 1 {
		return insert(db, n, items[0].key[d:], items[0].val)
	}
	n = resolved(db, n)
	switch nd := n.(type) {
	case nil:
		return buildSubtree(db, items, d)

	case *leafNode:
		// Fold the existing leaf in as one more item; batch items win on an
		// equal key. The merged set stays sorted.
		return buildSubtree(db, mergeLeaf(items, d, nd), d)

	case *extNode:
		// How far do ALL items follow the extension's compressed path?
		cp := len(nd.key)
		for i := range items {
			if c := commonPrefixLen(nd.key, items[i].key[d:]); c < cp {
				cp = c
			}
		}
		if cp == len(nd.key) {
			// Every item continues below the extension: recurse, building
			// the child subtree once.
			return &extNode{key: nd.key, child: batchInsert(db, nd.child, items, d+cp)}
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
		out := batchIntoBranch(db, b, items, d+cp)
		if cp > 0 {
			return &extNode{key: append([]byte(nil), nd.key[:cp]...), child: out}
		}
		return out

	case *branchNode:
		nb := &branchNode{children: nd.children, value: nd.value, hasValue: nd.hasValue}
		return batchIntoBranch(db, nb, items, d)
	}
	return n
}

// batchIntoBranch distributes sorted items into a freshly allocated (and
// therefore privately mutable) branch node at depth d: one recursion per
// distinct next nibble, each over a sub-slice of items, so the branch is
// written once regardless of item count.
func batchIntoBranch(db *Database, b *branchNode, items []kv, d int) node {
	i := 0
	// Sorted order puts the (unique) item that ends here first: it becomes
	// the branch's value.
	if len(items[0].key) == d {
		b.value, b.hasValue = items[0].val, true
		i++
	}
	for i < len(items) {
		nib := items[i].key[d]
		j := i
		for j < len(items) && items[j].key[d] == nib {
			j++
		}
		b.children[nib] = batchInsert(db, b.children[nib], items[i:j], d+1)
		i = j
	}
	return b
}

// buildSubtree constructs the canonical subtree at depth d holding items
// (sorted, duplicate-free, len >= 1) with no pre-existing node underneath.
// Leaf and extension keys are copies: no node keeps the batch's slab.
func buildSubtree(db *Database, items []kv, d int) node {
	if len(items) == 1 {
		return &leafNode{key: append([]byte(nil), items[0].key[d:]...), val: items[0].val}
	}
	// Sorted order means the minimum pairwise common prefix is attained by
	// the first and last items.
	if cp := commonPrefixLen(items[0].key[d:], items[len(items)-1].key[d:]); cp > 0 {
		return &extNode{key: append([]byte(nil), items[0].key[d:d+cp]...), child: buildSubtree(db, items, d+cp)}
	}
	return batchIntoBranch(db, &branchNode{}, items, d)
}

// mergeLeaf inserts the existing leaf at depth d into sorted items, keeping
// order; an item with the same key wins (the batch overwrites the leaf).
func mergeLeaf(items []kv, d int, leaf *leafNode) []kv {
	key := append(items[0].key[:d:d], leaf.key...) // the leaf's full path
	pos := sort.Search(len(items), func(i int) bool { return bytes.Compare(items[i].key, key) >= 0 })
	if pos < len(items) && bytes.Equal(items[pos].key, key) {
		return items
	}
	return slices.Insert(items[:len(items):len(items)], pos, kv{key: key, val: leaf.val}) // a copy: items is the caller's
}
