// Disk backend for the trie: hashNode (a node referenced by hash, resolved
// lazily), Database (the persistent node store plus an LRU cache of decoded
// nodes and contract code records), and the persist walk that flushes a
// trie's fresh in-memory nodes into a store batch and collapses its root to
// a hashNode — bounding resident memory at the cache size instead of the
// state size.
//
// Resolution NEVER mutates the tree: a hashNode stays a hashNode, decoded
// nodes live only in the Database's cache, and every mutation path
// (Update/Delete/Batch) copies a decoded node before touching it — exactly
// the immutability contract the validator pipeline relies on for concurrent
// reads of shared state versions. The one writer is the persist walk: it
// rewrites the hash-referenced children of each node it has just staged as
// hashNodes, while the trie is still private to the commit that built it —
// before any other goroutine can see it — so that the node takes the shape
// decodeNode gives its record. The cache then holds written as well as read
// nodes: once a batch's barrier returns, its branch and extension nodes go
// in, and Release evicts every node it prunes.
package trie

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"blockpilot/internal/crypto"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trie/store"
)

// hashNode references a stored node by hash; it is resolved on demand via
// the trie's Database and is the boundary between the in-memory working set
// and disk. It holds no pointer — its reference is 0xa0 ‖ hash, appended
// where it is needed — so decodeNode's slab of them is noscan.
type hashNode struct {
	hash [32]byte
}

func newHashNode(h [32]byte) *hashNode { return &hashNode{hash: h} }

func (*hashNode) cache() *refCache { return nil }

// MissingNodeError reports a hash reference that could not be resolved — a
// corrupted or wrongly pruned store, or a Trie used without its Database.
// It is delivered by panic from read paths (Get/Update/ForEach/...): a
// store that loses nodes is as fatal as a corrupted in-memory heap, and
// threading errors through every trie accessor would poison every caller
// for a can't-happen case.
type MissingNodeError struct {
	Hash [32]byte
	Err  error
}

func (e *MissingNodeError) Error() string {
	return fmt.Sprintf("trie: missing node %x: %v", e.Hash, e.Err)
}

func (e *MissingNodeError) Unwrap() error { return e.Err }

// resolved returns n with a hashNode replaced by its decoded node; all
// other nodes (including nil) pass through. The decoded node is shared via
// the Database cache and must not be mutated in place.
func resolved(db *Database, n node) node {
	hn, ok := n.(*hashNode)
	if !ok {
		return n
	}
	if db == nil {
		panic(&MissingNodeError{Hash: hn.hash, Err: fmt.Errorf("trie has no database")})
	}
	nd, err := db.node(hn.hash)
	if err != nil {
		panic(&MissingNodeError{Hash: hn.hash, Err: err})
	}
	return nd
}

// Telemetry: node-resolution traffic of the disk backend.
var (
	mNodeCacheHit  = telemetry.NewCounter("blockpilot_state_node_cache_hits_total", "trie node resolutions served by the decoded-node LRU")
	mNodeCacheMiss = telemetry.NewCounter("blockpilot_state_node_cache_misses_total", "trie node resolutions that went to the disk store")
)

// DefaultCacheNodes is the decoded-node LRU capacity used when a caller
// passes 0: at ~200 B per decoded node roughly 50 MB of cache.
const DefaultCacheNodes = 262144

// Database is the shared disk backend handle: one per node (or simulator),
// shared by every state snapshot, trie, and pipeline stage.
type Database struct {
	st    *store.Store
	cache *nodeLRU
	spare atomic.Pointer[Batch] // the last batch committed, for the next NewBatch

	resolves  atomic.Uint64 // hashNode resolutions (hit + miss)
	cacheHits atomic.Uint64

	// State-layer traffic, counted here because the Database is the one
	// object every snapshot of a backend shares (see state.Snapshot).
	logicalReads atomic.Uint64 // account/slot reads against disk snapshots
}

// OpenDatabase opens (or creates) the node store at path with a decoded-node
// LRU of cacheNodes entries (0 = DefaultCacheNodes).
func OpenDatabase(path string, cacheNodes int) (*Database, error) {
	if cacheNodes <= 0 {
		cacheNodes = DefaultCacheNodes
	}
	// The store extracts edges one node at a time under its lock, so all of
	// its calls share one result buffer (NodeEdges allocates one per call).
	var edges [][32]byte
	cache := newNodeLRU(cacheNodes)
	st, err := store.Open(path, store.Options{Edges: func(enc []byte, has func([32]byte) bool) [][32]byte {
		edges = edges[:0]
		collectEdges(enc, has, &edges)
		return edges
	}, Pruned: cache.remove})
	if err != nil {
		return nil, err
	}
	return &Database{st: st, cache: cache}, nil
}

// node resolves a stored node by hash: LRU first, then the store.
func (db *Database) node(h [32]byte) (node, error) {
	db.resolves.Add(1)
	if n, ok := db.cache.get(h); ok {
		db.cacheHits.Add(1)
		mNodeCacheHit.Inc()
		return n, nil
	}
	mNodeCacheMiss.Inc()
	enc, err := db.st.Get(h)
	if err != nil {
		return nil, err
	}
	n, err := decodeNode(enc)
	if err != nil {
		return nil, fmt.Errorf("decode %x: %w", h, err)
	}
	db.cache.add(lruEntry{hash: h, n: n})
	return n, nil
}

// Code returns a stored contract code blob.
func (db *Database) Code(h [32]byte) ([]byte, bool) {
	code, err := db.st.Code(h)
	if err != nil {
		return nil, false
	}
	return code, true
}

// Release drops a root anchor, pruning every node that becomes unreachable
// (refcounted, cascading through storage tries of deleted accounts).
func (db *Database) Release(root [32]byte) error {
	if root == EmptyRoot {
		return nil // the empty root is never stored, nothing to release
	}
	span := telemetry.StartSpan(telemetry.StateReleaseSeconds)
	defer span.End()
	return db.st.Release(root)
}

// HasRoot reports whether root is live (anchored) in the store.
func (db *Database) HasRoot(root [32]byte) bool {
	if root == EmptyRoot {
		return true
	}
	return db.st.Anchors(root) > 0
}

// LiveRoots returns the anchored roots, sorted.
func (db *Database) LiveRoots() [][32]byte { return db.st.LiveRoots() }

// Store exposes the underlying record store (tests, tools, crash battery).
func (db *Database) Store() *store.Store { return db.st }

// Close syncs and closes the backing file.
func (db *Database) Close() error { return db.st.Close() }

// CountLogicalRead is called by the state layer once per account/slot read
// against a disk-backed snapshot; it is the denominator of the read
// amplification headline (disk reads per logical state read).
func (db *Database) CountLogicalRead() { db.logicalReads.Add(1) }

// DBStats is a snapshot of the backend's read-path counters.
type DBStats struct {
	Resolves      uint64 // hashNode resolutions
	CacheHits     uint64 // resolutions served by the decoded-node LRU
	DiskReads     uint64 // payload reads from the file
	DiskBytesRead uint64
	LogicalReads  uint64 // state-layer account/slot reads
	FlatHits      uint64 // always 0: no read bypasses the trie (kept for benchmark/)
	Nodes         int    // live stored nodes
	Roots         int    // live anchored roots
	FileBytes     int64
}

// Stats returns the backend's counters.
func (db *Database) Stats() DBStats {
	ss := db.st.Stats()
	return DBStats{
		Resolves:      db.resolves.Load(),
		CacheHits:     db.cacheHits.Load(),
		DiskReads:     ss.DiskReads,
		DiskBytesRead: ss.DiskBytesRead,
		LogicalReads:  db.logicalReads.Load(),
		Nodes:         ss.Nodes,
		Roots:         ss.Roots,
		FileBytes:     ss.FileBytes,
	}
}

// ---------------------------------------------------------------------------
// Persist: flushing fresh trie nodes into a store batch

// Batch stages one atomic state commit against the Database: storage tries
// first, then code blobs, then the accounts trie, then Commit(root) writes
// everything behind a single durability barrier. A Batch is done with once
// Commit returns: a committed batch is the Database's next one.
type Batch struct {
	db     *Database
	sb     *store.Batch
	buf    []byte     // every staged encoding, back to back
	staged []lruEntry // the branch and extension nodes staged, cached on Commit
}

// maxSpareBuf bounds the encodings a batch may have held and still be reused:
// a block's fit many times over, a genesis chunk's are let go.
const maxSpareBuf = 4 << 20

// NewBatch starts a commit batch: the last one committed, emptied, when there
// is one.
func (db *Database) NewBatch() *Batch {
	if b := db.spare.Swap(nil); b != nil {
		return b
	}
	return &Batch{db: db, sb: db.st.NewBatch()}
}

// Reserve takes the node store's lock for this batch until its Commit's
// barrier returns (store.Batch.Reserve): the batch may then be staged and
// committed on another goroutine while every later store call waits for it.
// Nothing staged may need the store: PersistTrie stops at hashNodes.
func (b *Batch) Reserve() { b.sb.Reserve() }

// PutCode stages a contract code blob (content-addressed, idempotent).
func (b *Batch) PutCode(h [32]byte, code []byte) { b.sb.PutCode(h, code) }

// PersistTrie writes every fresh in-memory node of t into the batch
// (children before parents, stopping at hashNode boundaries — already
// persisted subtrees cost nothing), then collapses t's root to a hashNode
// and returns the root hash. After the batch commits, t reads through the
// Database like any reopened trie. t's fresh nodes must be private to the
// caller: persisting rewrites their children.
func (b *Batch) PersistTrie(t *Trie) [32]byte {
	if t.root == nil {
		return EmptyRoot
	}
	if hn, ok := t.root.(*hashNode); ok {
		return hn.hash // already persisted, nothing fresh
	}
	if t.db != b.db {
		panic("trie: PersistTrie against a different Database")
	}
	b.persistNode(t.root)
	rootHash := t.Hash() // from the reference persistNode left in the root
	if _, ok := hashRef(t.root); !ok {
		// Small roots are embedded nowhere (the root has no parent): store
		// them by hash so the anchor resolves — the Ethereum root-hash rule.
		start := len(b.buf)
		b.buf = appendNode(b.buf, t.root)
		b.sb.Put(rootHash, b.buf[start:])
	}
	t.root = newHashNode(rootHash)
	return rootHash
}

// Commit durably writes the batch behind one barrier, anchoring root, and
// puts the branch and extension nodes it staged into the node cache. A batch
// that committed becomes the Database's spare; one that failed is dropped.
func (b *Batch) Commit(root [32]byte) error {
	if err := b.sb.Commit(root); err != nil {
		return err
	}
	b.db.cache.add(b.staged...)
	if cap(b.buf) <= maxSpareBuf {
		clear(b.staged)
		b.buf, b.staged = b.buf[:0], b.staged[:0]
		b.sb.Reset()
		b.db.spare.Store(b)
	}
	return nil
}

// persistNode stages n's fresh subtree bottom-up. Each node is encoded once,
// into the batch's buffer, for its record, after its children, so the
// encoding takes their cached references; a node hashed before keeps its
// hash. A node shorter than 32 bytes is embedded in its parent, and so is
// everything under it: nothing of it is staged. A staged branch or extension
// node then refers to its hash-referenced children by hashNode, as its
// decoded record would, so that caching it pins no subtree.
func (b *Batch) persistNode(n node) {
	c := n.cache()
	if c == nil {
		return // a hashNode: persisted already
	}
	var ref [1 + 32]byte
	if r, ok := c.appendTo(ref[:0]); ok && len(r) < 32 {
		return // embedded
	}
	switch nd := n.(type) {
	case *extNode:
		b.persistNode(nd.child)
	case *branchNode:
		for _, ch := range nd.children {
			if ch != nil {
				b.persistNode(ch)
			}
		}
	}
	start := len(b.buf)
	b.buf = appendNode(b.buf, n)
	enc := b.buf[start:]
	if len(enc) < 32 {
		c.set(enc)
		b.buf = b.buf[:start]
		return
	}
	hash, ok := hashRef(n)
	if !ok {
		hash = crypto.Sum256(enc)
		c.set(hash[:])
	}
	b.sb.Put(hash, enc)
	switch nd := n.(type) {
	case *extNode:
		if h, ok := hashRef(nd.child); ok {
			nd.child = newHashNode(h)
		}
	case *branchNode:
		refs := 0
		for _, ch := range nd.children {
			if _, ok := hashRef(ch); ok {
				refs++
			}
		}
		if refs == 0 {
			break // a decoded node is shared: it is written only when it must be
		}
		slab := make([]hashNode, refs) // one allocation, as decodeNode's
		for i, ch := range nd.children {
			if h, ok := hashRef(ch); ok {
				slab[0].hash = h
				nd.children[i], slab = &slab[0], slab[1:]
			}
		}
	default:
		return // leaves stay out of the cache
	}
	b.staged = append(b.staged, lruEntry{hash: hash, n: n})
}

// hashRef returns the hash n's parent refers to it by, once n's reference is
// cached; ok is false for nil, a hashNode and an embedded node.
func hashRef(n node) (h [32]byte, ok bool) {
	if n != nil && n.cache() != nil {
		var buf [1 + 32]byte
		if ref, _ := n.cache().appendTo(buf[:0]); len(ref) == 1+32 {
			return [32]byte(ref[1:]), true
		}
	}
	return h, false
}

// ---------------------------------------------------------------------------
// Decoded-node LRU

// nodeLRU is a strict LRU of decoded nodes: one slab of entries linked by
// position — slab[0] is the list's head, its next the most recently used
// entry and its prev the least — and found through the same kind of table as
// the store's node index (store/index.go): the hash's first four bytes above
// a slab position, linear probing, backward-shift delete. A full cache reuses
// the entry it evicts, so an add allocates nothing.
type nodeLRU struct {
	mu    sync.Mutex
	cap   int
	slab  []lruEntry
	table []uint64 // power-of-two length, at most three quarters full; 0 = empty
}

type lruEntry struct {
	hash       [32]byte
	n          node
	prev, next uint32
}

func newNodeLRU(capacity int) *nodeLRU {
	return &nodeLRU{cap: capacity, slab: make([]lruEntry, 1), table: make([]uint64, 16)}
}

func lruPrefix(h *[32]byte) uint64 { return uint64(binary.BigEndian.Uint32(h[:4])) << 32 }

func (c *nodeLRU) find(h *[32]byte) uint32 {
	prefix, mask := lruPrefix(h), uint64(len(c.table)-1)
	for i := prefix >> 32 & mask; ; i = (i + 1) & mask {
		slot := c.table[i]
		if slot == 0 {
			return 0
		}
		if slot>>32 == prefix>>32 && c.slab[uint32(slot)].hash == *h {
			return uint32(slot)
		}
	}
}

func (c *nodeLRU) place(slot uint64) {
	mask := uint64(len(c.table) - 1)
	i := slot >> 32 & mask
	for c.table[i] != 0 {
		i = (i + 1) & mask
	}
	c.table[i] = slot
}

// toFront makes slab position j the most recently used entry.
func (c *nodeLRU) toFront(j uint32) {
	e, head := &c.slab[j], &c.slab[0]
	c.slab[e.prev].next, c.slab[e.next].prev = e.next, e.prev // a new entry links to itself
	e.prev, e.next = 0, head.next
	c.slab[head.next].prev, head.next = j, j
}

func (c *nodeLRU) get(h [32]byte) (node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.find(&h)
	if j == 0 {
		return nil, false
	}
	c.toFront(j)
	return c.slab[j].n, true
}

// add makes each entry in turn the most recently used, in one locked pass.
func (c *nodeLRU) add(entries ...lruEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		j := c.find(&e.hash)
		if j == 0 {
			if len(c.slab) <= c.cap {
				j = uint32(len(c.slab))
				c.slab = append(c.slab, lruEntry{prev: j, next: j})
				if len(c.slab)*4 > len(c.table)*3 {
					old := c.table
					c.table = make([]uint64, 2*len(old))
					for _, slot := range old {
						if slot != 0 {
							c.place(slot)
						}
					}
				}
			} else { // full: the least recently used entry makes room
				j = c.slab[0].prev
				c.unplace(j)
			}
			c.slab[j].hash = e.hash
			c.place(lruPrefix(&e.hash) | uint64(j))
		}
		c.slab[j].n = e.n
		c.toFront(j)
	}
}

// unplace takes slab position j's slot out of the table, shifting the rest of
// its cluster back.
func (c *nodeLRU) unplace(j uint32) {
	mask := uint64(len(c.table) - 1)
	i := lruPrefix(&c.slab[j].hash) >> 32 & mask
	for uint32(c.table[i]) != j {
		i = (i + 1) & mask
	}
	for k := (i + 1) & mask; c.table[k] != 0; k = (k + 1) & mask {
		if home := c.table[k] >> 32 & mask; (k-home)&mask >= (k-i)&mask {
			c.table[i], i = c.table[k], k
		}
	}
	c.table[i] = 0
}

// remove drops h's entry if there is one; the slab's last entry moves into
// its position, so the slab stays dense.
func (c *nodeLRU) remove(h [32]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.find(&h)
	if j == 0 {
		return
	}
	c.unplace(j)
	e, last := &c.slab[j], uint32(len(c.slab)-1)
	c.slab[e.prev].next, c.slab[e.next].prev = e.next, e.prev
	if j != last {
		c.unplace(last)
		*e = c.slab[last]
		c.place(lruPrefix(&e.hash) | uint64(j))
		c.slab[e.prev].next, c.slab[e.next].prev = j, j
	}
	c.slab[last] = lruEntry{}
	c.slab = c.slab[:last]
}
