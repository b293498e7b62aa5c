// Node decoding and edge extraction for the disk backend. decodeNode is the
// inverse of encodeNode; NodeEdges is the store's knowledge of where one
// stored node references others — structural children plus the account-leaf
// → storage-root cross-trie edge — and feeds both reference counting and
// reachability checks (store.Options.Edges).
package trie

import (
	"fmt"

	"blockpilot/internal/rlp"
)

// nodeElems is the element encodings of one node list, split in place: a
// branch's seventeen is the most a node has, so the array lives on the
// caller's stack and decoding a node allocates nothing but the node.
type nodeElems [17][]byte

// split fills e from a list payload and returns the element count; ok is
// false on a malformed element, and on an eighteenth.
func (e *nodeElems) split(content []byte) (n int, ok bool) {
	for len(content) > 0 {
		_, _, rest, err := rlp.Split(content)
		if err != nil || n == len(e) {
			return 0, false
		}
		e[n] = content[:len(content)-len(rest)]
		content = rest
		n++
	}
	return n, true
}

// decodeNode parses a full node encoding back into an in-memory node.
// 32-byte child references become hashNodes (resolved lazily against the
// Database); embedded small children are decoded inline.
func decodeNode(enc []byte) (node, error) {
	kind, content, rest, err := rlp.Split(enc)
	if err != nil || kind != rlp.KindList || len(rest) != 0 {
		return nil, fmt.Errorf("trie: node encoding is not an RLP list")
	}
	var elems nodeElems
	n, ok := elems.split(content)
	if !ok {
		return nil, fmt.Errorf("trie: node list is malformed or longer than a branch")
	}
	switch n {
	case 2:
		pathContent, _, err := rlp.SplitString(elems[0])
		if err != nil {
			return nil, fmt.Errorf("trie: node path: %w", err)
		}
		path, isLeaf := decodeHexPrefix(pathContent)
		if isLeaf {
			val, _, err := rlp.SplitString(elems[1])
			if err != nil {
				return nil, fmt.Errorf("trie: leaf value: %w", err)
			}
			return &leafNode{key: path, val: val}, nil
		}
		child, err := decodeChildRef(elems[1], nil)
		if err != nil {
			return nil, err
		}
		if child == nil {
			return nil, fmt.Errorf("trie: extension with empty child")
		}
		return &extNode{key: path, child: child}, nil
	case 17:
		b := &branchNode{}
		// A branch's hashNodes come from one allocation. Only a hash reference
		// (0xa0 || hash) is 33 bytes long: an embedded child is shorter.
		refs := 0
		for _, elem := range elems[:16] {
			if len(elem) == 33 {
				refs++
			}
		}
		slab := make([]hashNode, refs)
		for i, elem := range elems[:16] {
			c, err := decodeChildRef(elem, &slab)
			if err != nil {
				return nil, err
			}
			b.children[i] = c
		}
		val, _, err := rlp.SplitString(elems[16])
		if err != nil {
			return nil, fmt.Errorf("trie: branch value: %w", err)
		}
		if len(val) > 0 {
			b.value, b.hasValue = val, true
		}
		return b, nil
	}
	return nil, fmt.Errorf("trie: node with %d elements", n)
}

// decodeChildRef interprets one child slot of a decoded node: empty string →
// nil, 32-byte string → hashNode (the next of slab while it has one), embedded
// list → decoded inline.
func decodeChildRef(elem []byte, slab *[]hashNode) (node, error) {
	kind, content, _, err := rlp.Split(elem)
	if err != nil {
		return nil, fmt.Errorf("trie: child ref: %w", err)
	}
	if kind == rlp.KindString {
		switch len(content) {
		case 0:
			return nil, nil
		case 32:
			var h *hashNode
			if slab != nil && len(*slab) > 0 {
				h, *slab = &(*slab)[0], (*slab)[1:]
			} else {
				h = new(hashNode)
			}
			copy(h.hash[:], content)
			return h, nil
		default:
			return nil, fmt.Errorf("trie: child hash of %d bytes", len(content))
		}
	}
	return decodeNode(elem) // embedded small node: elem IS the encoding
}

// NodeEdges extracts every stored-node hash the encoding references: child
// nodes referenced by hash (recursing through embedded children, whose own
// children may be hashes) and, for values shaped like account bodies, the
// storage root. `has` disambiguates the account case: a 32-byte field only
// counts as an edge if a node with that hash is actually stored, so a false
// positive can only over-retain. This is the single extractor shared by the
// store's incremental refcounting (Batch.Commit, Release) and its reopen
// rebuild — the two stay consistent by construction.
func NodeEdges(enc []byte, has func([32]byte) bool) [][32]byte {
	var out [][32]byte
	collectEdges(enc, has, &out)
	return out
}

func collectEdges(enc []byte, has func([32]byte) bool, out *[][32]byte) {
	kind, content, _, err := rlp.Split(enc)
	if err != nil || kind != rlp.KindList {
		return
	}
	var elems nodeElems
	n, _ := elems.split(content) // n = 0 when malformed: no edges
	switch n {
	case 2:
		pathContent, _, err := rlp.SplitString(elems[0])
		if err != nil {
			return
		}
		if isLeafPath(pathContent) {
			if val, _, err := rlp.SplitString(elems[1]); err == nil {
				accountEdge(val, has, out)
			}
			return
		}
		childEdge(elems[1], has, out)
	case 17:
		if *out == nil {
			// Every edge is a 33-byte hash reference inside enc: one allocation
			// holds a branch's sixteen. A leaf or an extension has at most one.
			*out = make([][32]byte, 0, len(enc)/33)
		}
		for i := 0; i < 16; i++ {
			childEdge(elems[i], has, out)
		}
		if val, _, err := rlp.SplitString(elems[16]); err == nil && len(val) > 0 {
			accountEdge(val, has, out)
		}
	}
}

// childEdge handles one child slot: a 32-byte string is a direct edge; an
// embedded list is recursed (ITS children may be hash references).
func childEdge(elem []byte, has func([32]byte) bool, out *[][32]byte) {
	kind, content, _, err := rlp.Split(elem)
	if err != nil {
		return
	}
	if kind == rlp.KindString {
		if len(content) == 32 {
			var h [32]byte
			copy(h[:], content)
			*out = append(*out, h)
		}
		return
	}
	collectEdges(elem, has, out)
}

// accountEdge detects account-shaped leaf values — rlp[nonce ≤8B, balance
// ≤32B, storageRoot ==32B, codeHash ==32B], exactly — and emits the storage
// root as a cross-trie edge when a node with that hash is stored. Storage
// slot values are RLP strings, not lists, so they can never match; the
// residual false-positive (a 32-byte field colliding with a stored node's
// hash) only over-counts a reference, which leaks space but never dangles.
func accountEdge(val []byte, has func([32]byte) bool, out *[][32]byte) {
	kind, content, rest, err := rlp.Split(val)
	if err != nil || kind != rlp.KindList || len(rest) != 0 {
		return
	}
	var elems nodeElems
	if n, _ := elems.split(content); n != 4 {
		return
	}
	maxLens := [4]int{8, 32, 32, 32}
	var fields [4][]byte
	for i, e := range elems[:4] {
		s, _, err := rlp.SplitString(e)
		if err != nil || len(s) > maxLens[i] {
			return
		}
		fields[i] = s
	}
	if len(fields[2]) != 32 || len(fields[3]) != 32 {
		return
	}
	var root [32]byte
	copy(root[:], fields[2])
	if root != EmptyRoot && has(root) {
		*out = append(*out, root)
	}
}
