package trie

import (
	"bytes"
	"slices"
	"sync"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
)

// listHasher is the scratch of one ListRoot call: the items' encodings back
// to back, their key nibbles, the sorted (key, value) pairs and the buffer
// the nodes are encoded into. Pooled, so a root costs no allocation once the
// buffers have grown to a block's size.
type listHasher struct {
	vals    []byte
	ends    []int // vals[ends[i-1]:ends[i]] is item i
	nibbles []byte
	items   []kv
	enc     []byte
}

var listHashers = sync.Pool{New: func() any { return new(listHasher) }}

// ListRoot returns the root hash of the trie that maps rlp(i) to the i-th of
// n items — Ethereum's transaction and receipt trie — without building the
// trie: appendItem encodes each item once into a shared buffer, and the
// nodes over the sorted keys are encoded and hashed bottom-up in one pass
// (appendSubtree), no node object ever existing. The result equals an Update
// loop's Hash (TestListRootMatchesUpdateLoop).
func ListRoot(n int, appendItem func(dst []byte, i int) []byte) [32]byte {
	if n == 0 {
		return EmptyRoot
	}
	h := listHashers.Get().(*listHasher)
	h.vals, h.ends, h.items = h.vals[:0], h.ends[:0], h.items[:0]
	for i := 0; i < n; i++ {
		h.vals = appendItem(h.vals, i)
		h.ends = append(h.ends, len(h.vals))
	}
	var key [9]byte // the longest rlp(uint64)
	// Room for every key's nibbles up front: the slices taken below stay put.
	h.nibbles = slices.Grow(h.nibbles[:0], n*2*len(key))
	for i, start := 0, 0; i < n; i++ {
		at := len(h.nibbles)
		h.nibbles = appendNibbles(h.nibbles, rlp.AppendUint(key[:0], uint64(i)))
		h.items = append(h.items, kv{key: h.nibbles[at:], val: h.vals[start:h.ends[i]]})
		start = h.ends[i]
	}
	slices.SortFunc(h.items, func(a, b kv) int { return bytes.Compare(a.key, b.key) })
	h.enc = appendSubtree(h.enc[:0], h.items, 0)
	root := crypto.Sum256(h.enc)
	listHashers.Put(h)
	return root
}

// appendSubtree appends to dst the encoding of the root node of the canonical
// subtree over items (sorted, duplicate-free, at least one), whose keys all
// share their first depth nibbles. Children are encoded in place inside their
// parent's payload, each collapsing to its 33-byte hash reference as soon as
// it is complete, so dst never holds more than one root-to-leaf path.
func appendSubtree(dst []byte, items []kv, depth int) []byte {
	dst, list := rlp.StartList(dst)
	var compact [40]byte // a 32-byte key's 64 nibbles take 33
	first := items[0].key[depth:]
	if len(items) == 1 {
		dst = rlp.AppendString(dst, appendHexPrefix(compact[:0], first, true))
		dst = rlp.AppendString(dst, items[0].val)
		return rlp.EndList(dst, list)
	}
	// Sorted order means the minimum pairwise common prefix is attained by
	// the first and last items.
	if cp := commonPrefixLen(first, items[len(items)-1].key[depth:]); cp > 0 {
		dst = rlp.AppendString(dst, appendHexPrefix(compact[:0], first[:cp], false))
		dst = appendSubtreeRef(dst, items, depth+cp)
		return rlp.EndList(dst, list)
	}
	// A branch. Sorted order puts the (unique) key that ends here first: it
	// becomes the branch's value.
	var value []byte
	if len(first) == 0 {
		value, items = items[0].val, items[1:]
	}
	for nib := byte(0); nib < 16; nib++ {
		n := 0
		for n < len(items) && items[n].key[depth] == nib {
			n++
		}
		if n == 0 {
			dst = append(dst, 0x80) // the empty string
			continue
		}
		dst = appendSubtreeRef(dst, items[:n], depth+1)
		items = items[n:]
	}
	dst = rlp.AppendString(dst, value)
	return rlp.EndList(dst, list)
}

// appendSubtreeRef appends how a parent references the subtree over items:
// the node itself when its encoding is shorter than 32 bytes, its hash
// otherwise (nodeRef's rule).
func appendSubtreeRef(dst []byte, items []kv, depth int) []byte {
	start := len(dst)
	dst = appendSubtree(dst, items, depth)
	if len(dst)-start < 32 {
		return dst
	}
	hash := crypto.Sum256(dst[start:])
	dst = append(dst[:start], 0x80+32)
	return append(dst, hash[:]...)
}
