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
// reads of shared state versions.
package trie

import (
	"bytes"
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

	resolves  atomic.Uint64 // hashNode resolutions (hit + miss)
	cacheHits atomic.Uint64

	// State-layer traffic, counted here because the Database is the one
	// object every snapshot of a backend shares (see state.Snapshot).
	logicalReads atomic.Uint64 // account/slot reads against disk snapshots
	flatHits     atomic.Uint64 // served by the flat snapshot layer
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
	st, err := store.Open(path, store.Options{Edges: func(enc []byte, has func([32]byte) bool) [][32]byte {
		edges = edges[:0]
		collectEdges(enc, has, &edges)
		return edges
	}})
	if err != nil {
		return nil, err
	}
	return &Database{st: st, cache: newNodeLRU(cacheNodes)}, nil
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
	db.cache.add(h, n)
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

// CountFlatHit records a logical read served by the flat snapshot layer
// without touching the trie.
func (db *Database) CountFlatHit() { db.flatHits.Add(1) }

// DBStats is a snapshot of the backend's read-path counters.
type DBStats struct {
	Resolves      uint64 // hashNode resolutions
	CacheHits     uint64 // resolutions served by the decoded-node LRU
	DiskReads     uint64 // payload reads from the file
	DiskBytesRead uint64
	LogicalReads  uint64 // state-layer account/slot reads
	FlatHits      uint64 // logical reads served by the flat layer
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
		FlatHits:      db.flatHits.Load(),
		Nodes:         ss.Nodes,
		Roots:         ss.Roots,
		FileBytes:     ss.FileBytes,
	}
}

// ---------------------------------------------------------------------------
// Persist: flushing fresh trie nodes into a store batch

// Batch stages one atomic state commit against the Database: storage tries
// first, then code blobs, then the accounts trie, then Commit(root) writes
// everything behind a single durability barrier.
type Batch struct {
	db *Database
	sb *store.Batch
}

// NewBatch starts a commit batch.
func (db *Database) NewBatch() *Batch {
	return &Batch{db: db, sb: db.st.NewBatch()}
}

// PutCode stages a contract code blob (content-addressed, idempotent).
func (b *Batch) PutCode(h [32]byte, code []byte) { b.sb.PutCode(h, code) }

// PersistTrie writes every fresh in-memory node of t into the batch
// (children before parents, stopping at hashNode boundaries — already
// persisted subtrees cost nothing), then collapses t's root to a hashNode
// and returns the root hash. After the batch commits, t reads through the
// Database like any reopened trie, and the nodes it held are garbage.
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
	persistNode(b.sb, t.root)
	rootHash := t.Hash() // from the reference persistNode left in the root
	var buf [1 + 32]byte
	ref, ok := t.root.cache().appendTo(buf[:0])
	if !ok { // a concurrent hasher is still filling the cache
		ref = encodeNode(t.root)
	}
	if len(ref) < 32 {
		// Small roots are embedded nowhere (the root has no parent): store
		// them by hash so the anchor resolves — the Ethereum root-hash rule.
		b.sb.Put(rootHash, bytes.Clone(ref))
	}
	t.root = newHashNode(rootHash)
	return rootHash
}

// Commit durably writes the batch behind one barrier, anchoring root.
func (b *Batch) Commit(root [32]byte) error {
	return b.sb.Commit(root)
}

// persistNode stages n's fresh subtree bottom-up. Each node is encoded once,
// for its record, after its children, so the encoding takes their cached
// references; a node hashed before — a storage trie is hashed before it is
// persisted — keeps its hash. A node shorter than 32 bytes is embedded in
// its parent, and so is everything under it: nothing of it is staged.
func persistNode(sb *store.Batch, n node) {
	c := n.cache()
	if c == nil {
		return // a hashNode: persisted already
	}
	var buf [1 + 32]byte
	if ref, ok := c.appendTo(buf[:0]); ok && len(ref) < 32 {
		return // embedded
	}
	switch nd := n.(type) {
	case *extNode:
		persistNode(sb, nd.child)
	case *branchNode:
		for _, ch := range nd.children {
			if ch != nil {
				persistNode(sb, ch)
			}
		}
	}
	enc := encodeNode(n)
	if len(enc) < 32 {
		c.set(enc)
		return
	}
	var hash [32]byte
	if ref, ok := c.appendTo(buf[:0]); ok {
		hash = [32]byte(ref[1:])
	} else {
		hash = crypto.Sum256(enc)
		c.set(hash[:])
	}
	sb.Put(hash, enc)
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

func (c *nodeLRU) add(h [32]byte, n node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.find(&h)
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
		c.slab[j].hash = h
		c.place(lruPrefix(&h) | uint64(j))
	}
	c.slab[j].n = n
	c.toFront(j)
}
