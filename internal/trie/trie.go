// Package trie implements the hexary Merkle Patricia Trie that stores the
// Ethereum world state and computes the state root committed in block
// headers.
//
// Nodes are immutable: Update and Delete return paths of fresh nodes and
// share all untouched subtrees with the previous version. A Trie copy is
// therefore O(1), which is what lets the validator pipeline hold several
// world-state versions (one per in-flight block) cheaply. Each node keeps
// its reference inline, filled once by compare-and-swap, so concurrent
// hashing of shared subtrees is safe.
package trie

import (
	"bytes"
	"sync"
	"sync/atomic"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
)

// node is one trie node: *leafNode, *extNode, *branchNode or *hashNode.
type node interface {
	// cache returns the node's reference cache; nil for a hashNode, whose
	// reference is its hash.
	cache() *refCache
}

// leafNode holds a value at the end of a key path (key is in nibbles).
type leafNode struct {
	key []byte
	val []byte
	ref refCache
}

// extNode compresses a shared nibble path leading to a branch.
type extNode struct {
	key   []byte
	child node
	ref   refCache
}

// branchNode fans out on one nibble; value holds a key that ends here. The
// field order keeps it at 320 bytes, one size class.
type branchNode struct {
	children [16]node
	value    []byte
	ref      refCache
	hasValue bool
}

func (n *leafNode) cache() *refCache   { return &n.ref }
func (n *extNode) cache() *refCache    { return &n.ref }
func (n *branchNode) cache() *refCache { return &n.ref }

// refCache holds a node's reference in its parent inside the node: the
// encoding itself when it is shorter than 32 bytes, else the hash, whose
// 0xa0 string header is implied. state is 0 while empty, 1 while a writer
// fills buf, and 2 + len(ref) once buf holds it for good. The first writer
// wins the compare-and-swap; a concurrent one that loses only appends the
// same bytes it computed, so racing hashers of a shared subtree agree
// without a data race.
type refCache struct {
	state atomic.Uint32
	buf   [32]byte
}

// appendTo appends the cached reference to dst; ok is false while empty.
func (c *refCache) appendTo(dst []byte) (out []byte, ok bool) {
	s := c.state.Load()
	if s < 2 {
		return dst, false
	}
	if s == 2+32 {
		dst = append(dst, 0x80+32)
	}
	return append(dst, c.buf[:s-2]...), true
}

// set records ref — an embedded encoding or a hash — unless a writer came
// first.
func (c *refCache) set(ref []byte) {
	if c.state.CompareAndSwap(0, 1) {
		copy(c.buf[:], ref)
		c.state.Store(2 + uint32(len(ref)))
	}
}

// Trie is a persistent Merkle Patricia Trie. The zero value is an empty
// in-memory trie. A trie opened against a Database resolves hash references
// through it lazily; a missing node panics with *MissingNodeError (see
// db.go for why that is a panic, not an error return).
type Trie struct {
	root node
	db   *Database
}

// New returns an empty in-memory trie.
func New() *Trie { return &Trie{} }

// NewDB returns an empty trie whose commits persist into db.
func NewDB(db *Database) *Trie { return &Trie{db: db} }

// NewAt opens the stored trie with the given root hash. The root is
// resolved lazily: opening is O(1) and reads fault in nodes on demand.
func NewAt(db *Database, root [32]byte) *Trie {
	if root == EmptyRoot {
		return &Trie{db: db}
	}
	return &Trie{root: newHashNode(root), db: db}
}

// Copy returns a snapshot of the trie. Both copies may diverge independently.
func (t *Trie) Copy() *Trie { return &Trie{root: t.root, db: t.db} }

// EmptyRoot is the hash of an empty trie: keccak256(rlp("")).
var EmptyRoot = crypto.Sum256([]byte{0x80})

// keybytesToNibbles expands key bytes into high-first nibbles.
func keybytesToNibbles(key []byte) []byte {
	return appendNibbles(make([]byte, 0, len(key)*2), key)
}

// appendNibbles appends key's bytes to dst as high-first nibbles.
func appendNibbles(dst, key []byte) []byte {
	for _, b := range key {
		dst = append(dst, b>>4, b&0x0f)
	}
	return dst
}

// commonPrefixLen returns the length of the shared prefix of a and b.
func commonPrefixLen(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Get returns the value stored under key, or nil if absent. Like Update and
// Delete it expands a key of up to 32 bytes — every state key is a Keccak
// hash — on the stack: no node keeps a slice of the path it was reached by.
func (t *Trie) Get(key []byte) []byte {
	var buf [64]byte
	return get(t.db, t.root, appendNibbles(buf[:0], key))
}

func get(db *Database, n node, key []byte) []byte {
	for {
		switch nd := n.(type) {
		case nil:
			return nil
		case *hashNode:
			n = resolved(db, nd)
		case *leafNode:
			if bytes.Equal(nd.key, key) {
				return nd.val
			}
			return nil
		case *extNode:
			if len(key) < len(nd.key) || !bytes.Equal(nd.key, key[:len(nd.key)]) {
				return nil
			}
			n, key = nd.child, key[len(nd.key):]
		case *branchNode:
			if len(key) == 0 {
				if nd.hasValue {
					return nd.value
				}
				return nil
			}
			n, key = nd.children[key[0]], key[1:]
		default:
			return nil
		}
	}
}

// Update stores value under key. An empty or nil value deletes the key
// (Ethereum state semantics).
func (t *Trie) Update(key, value []byte) {
	if len(value) == 0 {
		t.Delete(key)
		return
	}
	var buf [64]byte
	t.root = insert(t.db, t.root, appendNibbles(buf[:0], key), value)
}

// Delete removes key from the trie if present.
func (t *Trie) Delete(key []byte) {
	var buf [64]byte
	t.root, _ = remove(t.db, t.root, appendNibbles(buf[:0], key))
}

// putIntoBranch stores (key, value) directly under a fresh branch.
func putIntoBranch(b *branchNode, key, value []byte) {
	if len(key) == 0 {
		b.value, b.hasValue = value, true
		return
	}
	b.children[key[0]] = &leafNode{key: append([]byte(nil), key[1:]...), val: value}
}

// insert returns a new subtree equal to n with (key, value) stored. It
// never mutates existing nodes: resolved (cache-shared) nodes are copied
// before modification, like every other node.
func insert(db *Database, n node, key, value []byte) node {
	n = resolved(db, n)
	switch nd := n.(type) {
	case nil:
		return &leafNode{key: append([]byte(nil), key...), val: value}

	case *leafNode:
		cp := commonPrefixLen(key, nd.key)
		if cp == len(key) && cp == len(nd.key) {
			return &leafNode{key: nd.key, val: value}
		}
		b := &branchNode{}
		putIntoBranch(b, nd.key[cp:], nd.val)
		putIntoBranch(b, key[cp:], value)
		if cp > 0 {
			return &extNode{key: append([]byte(nil), key[:cp]...), child: b}
		}
		return b

	case *extNode:
		cp := commonPrefixLen(key, nd.key)
		if cp == len(nd.key) {
			return &extNode{key: nd.key, child: insert(db, nd.child, key[cp:], value)}
		}
		b := &branchNode{}
		idx := nd.key[cp]
		if rest := nd.key[cp+1:]; len(rest) == 0 {
			b.children[idx] = nd.child
		} else {
			b.children[idx] = &extNode{key: append([]byte(nil), rest...), child: nd.child}
		}
		putIntoBranch(b, key[cp:], value)
		if cp > 0 {
			return &extNode{key: append([]byte(nil), key[:cp]...), child: b}
		}
		return b

	case *branchNode:
		nb := &branchNode{children: nd.children, value: nd.value, hasValue: nd.hasValue}
		if len(key) == 0 {
			nb.value, nb.hasValue = value, true
			return nb
		}
		nb.children[key[0]] = insert(db, nd.children[key[0]], key[1:], value)
		return nb
	}
	return nil
}

// remove returns a new subtree with key removed, and whether it was found.
func remove(db *Database, n node, key []byte) (node, bool) {
	n = resolved(db, n)
	switch nd := n.(type) {
	case nil:
		return nil, false

	case *leafNode:
		if bytes.Equal(nd.key, key) {
			return nil, true
		}
		return nd, false

	case *extNode:
		if len(key) < len(nd.key) || !bytes.Equal(nd.key, key[:len(nd.key)]) {
			return nd, false
		}
		child, found := remove(db, nd.child, key[len(nd.key):])
		if !found {
			return nd, false
		}
		switch c := child.(type) {
		case nil:
			return nil, true
		case *leafNode:
			return &leafNode{key: concatNibbles(nd.key, c.key), val: c.val}, true
		case *extNode:
			return &extNode{key: concatNibbles(nd.key, c.key), child: c.child}, true
		default:
			return &extNode{key: nd.key, child: child}, true
		}

	case *branchNode:
		nb := &branchNode{children: nd.children, value: nd.value, hasValue: nd.hasValue}
		if len(key) == 0 {
			if !nd.hasValue {
				return nd, false
			}
			nb.value, nb.hasValue = nil, false
		} else {
			child, found := remove(db, nd.children[key[0]], key[1:])
			if !found {
				return nd, false
			}
			nb.children[key[0]] = child
		}
		return collapseBranch(db, nb), true
	}
	return nil, false
}

// collapseBranch restores trie invariants after a deletion: a branch with a
// single remaining entry becomes a leaf or extension. The surviving child
// must be resolved for the collapse: an ext pointing at a stored leaf/ext
// would break the canonical shape.
func collapseBranch(db *Database, b *branchNode) node {
	childCount := 0
	lastIdx := -1
	for i, c := range b.children {
		if c != nil {
			childCount++
			lastIdx = i
		}
	}
	switch {
	case childCount == 0 && !b.hasValue:
		return nil
	case childCount == 0: // only the value remains
		return &leafNode{key: []byte{}, val: b.value}
	case childCount == 1 && !b.hasValue:
		prefix := []byte{byte(lastIdx)}
		switch c := resolved(db, b.children[lastIdx]).(type) {
		case *leafNode:
			return &leafNode{key: concatNibbles(prefix, c.key), val: c.val}
		case *extNode:
			return &extNode{key: concatNibbles(prefix, c.key), child: c.child}
		default:
			return &extNode{key: prefix, child: c}
		}
	default:
		return b
	}
}

func concatNibbles(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// appendHexPrefix appends the compact hex-prefix form of a nibble path to
// dst. leaf=true sets the terminator flag.
func appendHexPrefix(dst, nibbles []byte, leaf bool) []byte {
	flag := byte(0)
	if leaf {
		flag = 2
	}
	if len(nibbles)%2 == 1 {
		dst = append(dst, (flag+1)<<4|nibbles[0])
		nibbles = nibbles[1:]
	} else {
		dst = append(dst, flag<<4)
	}
	for i := 0; i < len(nibbles); i += 2 {
		dst = append(dst, nibbles[i]<<4|nibbles[i+1])
	}
	return dst
}

// appendNode appends the RLP encoding of n (the full node body) to dst. It
// allocates nothing when dst has room: children contribute their references
// (see appendRef) and the compact key is built on the stack.
func appendNode(dst []byte, n node) []byte {
	start := len(dst)
	dst, list := rlp.StartList(dst)
	var compact [40]byte // a 32-byte key's 64 nibbles take 33
	switch nd := n.(type) {
	case *leafNode:
		dst = rlp.AppendString(dst, appendHexPrefix(compact[:0], nd.key, true))
		dst = rlp.AppendString(dst, nd.val)
	case *extNode:
		dst = rlp.AppendString(dst, appendHexPrefix(compact[:0], nd.key, false))
		dst = appendRef(dst, nd.child)
	case *branchNode:
		for _, c := range nd.children {
			if c == nil {
				dst = append(dst, 0x80) // the empty string
			} else {
				dst = appendRef(dst, c)
			}
		}
		dst = rlp.AppendString(dst, nd.value)
	default:
		return append(dst[:start], 0x80)
	}
	return rlp.EndList(dst, list)
}

// encScratch recycles the buffers nodes are encoded into when only a hash or
// a copy of the encoding outlives the call.
var encScratch = sync.Pool{New: func() any {
	buf := make([]byte, 0, 1024) // a full branch of hashed children takes 532
	return &buf
}}

// encodeNode returns the RLP encoding of n (the full node body) in a slice
// of its own.
func encodeNode(n node) []byte {
	buf := encScratch.Get().(*[]byte)
	*buf = appendNode((*buf)[:0], n)
	enc := bytes.Clone(*buf)
	encScratch.Put(buf)
	return enc
}

// appendRef appends how n is referenced inside its parent: embedded directly
// when its encoding is shorter than 32 bytes, as the string of its keccak
// hash otherwise. A hashNode's reference is its hash; any other node's is
// computed once — encoded in place at the end of dst, then collapsed to its
// hash — and kept in the node's refCache.
func appendRef(dst []byte, n node) []byte {
	c := n.cache()
	if c == nil {
		return append(append(dst, 0x80+32), n.(*hashNode).hash[:]...)
	}
	if out, ok := c.appendTo(dst); ok {
		return out
	}
	start := len(dst)
	dst = appendNode(dst, n)
	if len(dst)-start < 32 {
		c.set(dst[start:])
		return dst
	}
	var hash [32]byte
	crypto.Keccak256Into(&hash, dst[start:])
	c.set(hash[:])
	return append(append(dst[:start], 0x80+32), hash[:]...)
}

// Hash returns the trie's root hash (the Ethereum state root rule:
// keccak256 of the root node encoding, or EmptyRoot for an empty trie). The
// root keeps its reference, so hashing a trie again costs nothing.
func (t *Trie) Hash() (hash [32]byte) {
	if t.root == nil {
		return EmptyRoot
	}
	buf := encScratch.Get().(*[]byte)
	if *buf = appendRef((*buf)[:0], t.root); len(*buf) == 1+32 {
		hash = [32]byte((*buf)[1:])
	} else {
		hash = crypto.Sum256(*buf) // a root shorter than 32 bytes is hashed all the same
	}
	encScratch.Put(buf)
	return hash
}

// Len returns the number of keys in the trie (O(n), for tests and stats).
func (t *Trie) Len() int {
	return count(t.db, t.root)
}

func count(db *Database, n node) int {
	switch nd := resolved(db, n).(type) {
	case nil:
		return 0
	case *leafNode:
		return 1
	case *extNode:
		return count(db, nd.child)
	case *branchNode:
		c := 0
		if nd.hasValue {
			c = 1
		}
		for _, ch := range nd.children {
			c += count(db, ch)
		}
		return c
	}
	return 0
}

// ForEach visits every (key, value) pair in lexicographic key order. The key
// passed to fn is the original byte key; fn returning false stops the walk.
func (t *Trie) ForEach(fn func(key, value []byte) bool) {
	walk(t.db, t.root, nil, fn)
}

func walk(db *Database, n node, prefix []byte, fn func(key, value []byte) bool) bool {
	switch nd := resolved(db, n).(type) {
	case nil:
		return true
	case *leafNode:
		return fn(nibblesToKeybytes(append(prefix, nd.key...)), nd.val)
	case *extNode:
		return walk(db, nd.child, append(prefix, nd.key...), fn)
	case *branchNode:
		if nd.hasValue {
			if !fn(nibblesToKeybytes(prefix), nd.value) {
				return false
			}
		}
		for i, c := range nd.children {
			if c == nil {
				continue
			}
			if !walk(db, c, append(prefix, byte(i)), fn) {
				return false
			}
		}
		return true
	}
	return true
}

// nibblesToKeybytes packs an even-length nibble path back into bytes.
func nibblesToKeybytes(nibbles []byte) []byte {
	out := make([]byte, len(nibbles)/2)
	for i := range out {
		out[i] = nibbles[i*2]<<4 | nibbles[i*2+1]
	}
	return out
}
