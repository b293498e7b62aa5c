// Package store is the persistent node store backing disk-backed world
// state: a flat append-only key-value file of checksummed records with
// durable commit/release barriers and reference-counted pruning of stale
// roots (Geth's rawdb + trie.Database, radically simplified, in the same
// spirit as internal/blockdb).
//
// Format: the file is a sequence of records
//
//	kind(1) || key(32) || vlen(4, big-endian) || payload(vlen) || crc32(4)
//
// where the CRC (IEEE) covers everything before it. Record kinds:
//
//	put     — a trie node: key = keccak256(payload), payload = node encoding
//	code    — contract code: key = keccak256(payload)
//	del     — a pruned node (written by Release before its barrier)
//	commit  — barrier: the preceding puts are durable and key is a live root
//	release — barrier: root `key` was dereferenced (preceded by its dels)
//
// Durability contract: a state commit appends its put/code records followed
// by one commit barrier; a release appends its del records followed by one
// release barrier. On Open the log is scanned record by record and the file
// is physically truncated at the end of the LAST VALID BARRIER — so a crash
// mid-commit (torn tail) recovers to exactly the previous durable root with
// no phantom nodes, and a crash mid-release loses at most the prune (a
// space leak, never a dangling reference).
//
// Reference counts are not stored; they are derivable. refs(n) = number of
// references to n from live stored nodes + number of live-root anchors of
// n. Open rebuilds them in one linear pass using the injected edge
// extractor (Options.Edges — the trie layer's knowledge of where child
// hashes live inside a node encoding, including the account-leaf →
// storage-root cross-trie edge). Incremental maintenance in Commit/Release
// uses the same extractor, so the two always agree.
package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
)

// Record kinds.
const (
	recPut     = 1
	recCode    = 2
	recDel     = 3
	recCommit  = 4
	recRelease = 5
)

// recHeader is kind + key + vlen; recOverhead adds the trailing CRC.
const (
	recHeaderLen = 1 + 32 + 4
	recCRCLen    = 4
	recOverhead  = recHeaderLen + recCRCLen
)

// maxPayload bounds one record to keep a corrupt length from allocating
// absurd buffers. Trie node encodings are at most a few KiB; contract code
// is bounded by the EVM code-size limit. 16 MiB is orders of magnitude
// above both.
const maxPayload = 16 << 20

// Store errors.
var (
	ErrNotFound    = errors.New("store: node not found")
	ErrNotLiveRoot = errors.New("store: not a live root")
	ErrClosed      = errors.New("store: closed")
)

// Options configures a Store.
type Options struct {
	// Edges extracts the hashes a node encoding references: child nodes
	// (direct or embedded) and, for account leaves, the storage root. The
	// `has` callback reports whether a hash is currently stored and is used
	// to disambiguate 32-byte values from node references; a false positive
	// can only over-retain (leak), never dangle. The store calls Edges only
	// with its lock held and is done with the result before the next call,
	// so an extractor may hand back the same backing array every time.
	Edges func(enc []byte, has func([32]byte) bool) [][32]byte
	// Pruned, when set, is called under the store's lock with each node a
	// Release prunes, once the release barrier is durable: the hook by which
	// a cache of nodes drops what the store no longer holds.
	Pruned func(h [32]byte)
	// Sync fsyncs the file after every barrier (off by default: the crash
	// battery models torn tails, not lying disks).
	Sync bool
}

// Stats is a snapshot of the store's read/write counters.
type Stats struct {
	DiskReads     uint64 // payload reads served from the file (Get, Code, the prune cascade)
	DiskBytesRead uint64
	Puts          uint64 // node records written (post-dedup)
	Dels          uint64 // node records pruned
	Nodes         int    // live node records
	Roots         int    // live root anchors (distinct roots)
	FileBytes     int64
}

// Store is the append-only node store. All methods are safe for concurrent
// use.
type Store struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	size  int64
	idx   nodeIndex        // live trie nodes and their reference counts
	codes map[[32]byte]loc // contract code blobs (never pruned)
	roots map[[32]byte]int // live root → anchor count
	opts  Options
	open  bool

	// The record buffer of a Commit or a Release, kept between calls so
	// neither builds one per call.
	buf []byte
	// Release's working set, kept between calls so a prune allocates nothing
	// per node: the undo log (every count dropped), the pruned nodes in
	// cascade order, the cascade's stack and one payload buffer.
	rel struct {
		undo, dead, stack []uint32
		enc               []byte
	}

	diskReads atomic.Uint64
	bytesRead atomic.Uint64
	puts      atomic.Uint64
	dels      atomic.Uint64
}

// Open creates or reopens a store at path, scanning the log, truncating the
// tail back to the last valid barrier, and rebuilding the index and
// reference counts.
func Open(path string, opts Options) (*Store, error) {
	if opts.Edges == nil {
		return nil, errors.New("store: Options.Edges is required")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{
		f:     f,
		path:  path,
		idx:   newNodeIndex(),
		codes: make(map[[32]byte]loc),
		roots: make(map[[32]byte]int),
		opts:  opts,
		open:  true,
	}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// scanBuffer is the read-ahead of Open's two passes over the log.
const scanBuffer = 1 << 20

// recover scans the log, replays every record up to the last valid barrier,
// truncates the file there, and rebuilds reference counts. The scan is one
// sequential buffered read; only a record's key, offset and length outlive it.
func (s *Store) recover() error {
	type rec struct {
		kind byte
		key  [32]byte
		loc  // of the payload
	}
	var pending []rec // records since the last barrier
	offset := int64(0)
	durable := int64(0) // end of the last valid barrier

	apply := func(r rec) {
		switch r.kind {
		case recPut:
			if s.idx.find(&r.key) == 0 {
				s.idx.insert(entry{key: r.key, loc: r.loc})
			}
		case recCode:
			if _, dup := s.codes[r.key]; !dup {
				s.codes[r.key] = r.loc
			}
		case recDel:
			if j := s.idx.find(&r.key); j != 0 {
				s.idx.remove(j)
			}
		case recCommit:
			s.roots[r.key]++
		case recRelease:
			s.dropAnchor(r.key)
		}
	}

	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	log := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, fi.Size()), scanBuffer)
	body := make([]byte, recHeaderLen, 4096) // one record, reused
	for {
		body = body[:recHeaderLen]
		if _, err := io.ReadFull(log, body); err != nil {
			break // EOF or torn header
		}
		kind := body[0]
		if kind < recPut || kind > recRelease {
			break // corrupt kind
		}
		vlen := binary.BigEndian.Uint32(body[33:])
		end := offset + recHeaderLen + int64(vlen) + recCRCLen
		if vlen > maxPayload || end > fi.Size() {
			break // corrupt length or torn payload
		}
		body = slices.Grow(body, int(vlen)+recCRCLen)[:recHeaderLen+int(vlen)+recCRCLen]
		if _, err := io.ReadFull(log, body[recHeaderLen:]); err != nil {
			break
		}
		sum := len(body) - recCRCLen
		if crc32.ChecksumIEEE(body[:sum]) != binary.BigEndian.Uint32(body[sum:]) {
			break // checksum mismatch
		}
		r := rec{kind: kind, loc: loc{off: offset + recHeaderLen, vlen: vlen}}
		copy(r.key[:], body[1:33])
		pending = append(pending, r)
		offset = end
		if kind == recCommit || kind == recRelease {
			for _, p := range pending {
				apply(p)
			}
			pending = pending[:0]
			durable = offset
		}
	}
	// Records after the last barrier belong to a torn commit or release:
	// phantom puts / unjustified dels. Truncate them away.
	s.size = durable
	if err := s.f.Truncate(durable); err != nil {
		return err
	}
	return s.rebuildRefs()
}

// dropAnchor removes one anchor of a live root.
func (s *Store) dropAnchor(root [32]byte) {
	if s.roots[root] > 1 {
		s.roots[root]--
	} else {
		delete(s.roots, root)
	}
}

// rebuildRefs recomputes every live node's reference count: one pass over
// the live records in file order extracting edges, plus the live-root
// anchors. This is the same accounting Commit/Release maintain
// incrementally, from the same edge extractor, so a reopened store prunes
// identically to one that never closed.
func (s *Store) rebuildRefs() error {
	x := &s.idx
	nodes := make([]uint32, 0, x.len())
	for j := 1; j < len(x.slab); j++ {
		if x.slab[j].off != 0 { // a vacated position is zeroed; a payload never starts at 0
			nodes = append(nodes, uint32(j))
		}
	}
	slices.SortFunc(nodes, func(a, b uint32) int { return cmp.Compare(x.slab[a].off, x.slab[b].off) })
	log := bufio.NewReaderSize(io.NewSectionReader(s.f, 0, s.size), scanBuffer)
	pos, has := int64(0), s.has
	var enc []byte // reused: Edges copies the hashes out
	for _, j := range nodes {
		l := x.slab[j].loc
		enc = slices.Grow(enc[:0], int(l.vlen))[:l.vlen]
		if _, err := log.Discard(int(l.off - pos)); err != nil {
			return fmt.Errorf("store: rebuild refs: %w", err)
		}
		if _, err := io.ReadFull(log, enc); err != nil {
			return fmt.Errorf("store: rebuild refs: %w", err)
		}
		pos = l.off + int64(l.vlen)
		s.countEdges(j, enc, has)
	}
	for root, anchors := range s.roots {
		if j := x.find(&root); j != 0 {
			x.slab[j].refs += int32(anchors)
		}
	}
	return nil
}

// countEdges adds one reference to every stored node that enc — the payload
// at slab position j — points at, and flags j when there is none.
func (s *Store) countEdges(j uint32, enc []byte, has func([32]byte) bool) {
	x := &s.idx
	edges := s.opts.Edges(enc, has)
	n := 0
	for i := range edges {
		if c := x.find(&edges[i]); c != 0 {
			x.slab[c].refs++
			n++
		}
	}
	if n == 0 {
		x.slab[j].flags |= flagNoEdges
	}
}

// has is the liveness test handed to Edges: stored, and not pruned by the
// Release in progress. Callers hold s.mu, and bind it once per operation (a
// method value is an allocation).
func (s *Store) has(h [32]byte) bool {
	j := s.idx.find(&h)
	return j != 0 && s.idx.slab[j].flags&flagDead == 0
}

// readPayload reads one record's payload into buf's backing array when it is
// large enough (a caller that is done with each payload before the next read
// passes the previous result back in), else into a fresh buffer.
func (s *Store) readPayload(l loc, buf []byte) ([]byte, error) {
	if cap(buf) < int(l.vlen) {
		buf = make([]byte, l.vlen)
	}
	buf = buf[:l.vlen]
	if _, err := s.f.ReadAt(buf, l.off); err != nil {
		return nil, err
	}
	s.diskReads.Add(1)
	s.bytesRead.Add(uint64(l.vlen))
	return buf, nil
}

// Get returns a live node's encoding.
func (s *Store) Get(h [32]byte) ([]byte, error) {
	s.mu.Lock()
	j := s.idx.find(&h)
	l := s.idx.slab[j].loc
	open := s.open
	s.mu.Unlock()
	if !open {
		return nil, ErrClosed
	}
	if j == 0 {
		return nil, fmt.Errorf("%w: %x", ErrNotFound, h)
	}
	return s.readPayload(l, nil) // ReadAt is safe without the lock
}

// Has reports whether a node is live.
func (s *Store) Has(h [32]byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.find(&h) != 0
}

// Code returns a stored code blob.
func (s *Store) Code(h [32]byte) ([]byte, error) {
	s.mu.Lock()
	l, ok := s.codes[h]
	open := s.open
	s.mu.Unlock()
	if !open {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: code %x", ErrNotFound, h)
	}
	return s.readPayload(l, nil)
}

// appendRecord stages one record into buf and returns the new buf. The
// caller tracks offsets from s.size + len(buf) before the append.
func appendRecord(buf []byte, kind byte, key [32]byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = append(buf, key[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// appendBarrier writes buf — records ending in a barrier — at the end of the
// file and, when it is durable, accounts for it.
func (s *Store) appendBarrier(buf []byte) error {
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		return err
	}
	if s.opts.Sync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.size += int64(len(buf))
	return nil
}

// Batch stages one state commit: put/code records followed by a commit
// barrier anchoring a root. Nothing is visible (or durable) until Commit
// returns; the staging order must be children-before-parents and storage
// tries before the accounts trie, so edge targets always precede their
// referrers.
type Batch struct {
	s     *Store
	nodes []stagedPut
	codes []stagedPut
}

type stagedPut struct {
	key  [32]byte
	enc  []byte
	slot uint32 // Commit: the node's slab position, 0 when it was already stored
}

// NewBatch starts a commit batch.
func (s *Store) NewBatch() *Batch { return &Batch{s: s} }

// Reset empties the batch for another commit, keeping its arrays.
func (b *Batch) Reset() {
	clear(b.nodes)
	clear(b.codes)
	b.nodes, b.codes = b.nodes[:0], b.codes[:0]
}

// maxKeptBuf bounds the record buffer a Commit leaves to the store: a block's
// records fit many times over, while a genesis chunk's tens of megabytes are
// let go once written.
const maxKeptBuf = 4 << 20

// Put stages a node. It touches nothing shared: whether the node is already
// stored — or staged twice — is decided once, in Commit, under the store's
// lock, where no Release can come between the answer and its use.
func (b *Batch) Put(h [32]byte, enc []byte) {
	b.nodes = append(b.nodes, stagedPut{key: h, enc: enc})
}

// PutCode stages a code blob (idempotent).
func (b *Batch) PutCode(h [32]byte, code []byte) {
	b.codes = append(b.codes, stagedPut{key: h, enc: code})
}

// Commit writes the staged records plus a commit barrier anchoring root,
// then counts their edges. A node that is already stored — by an earlier
// commit, a concurrent batch, or earlier in this one — is written once.
func (b *Batch) Commit(root [32]byte) error {
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return ErrClosed
	}

	// Sized from what is staged: every record plus the barrier.
	size := recOverhead
	for _, p := range b.codes {
		size += recOverhead + len(p.enc)
	}
	for _, p := range b.nodes {
		size += recOverhead + len(p.enc)
	}
	buf := slices.Grow(s.buf[:0], size)
	// Codes and nodes enter their index as their record is staged — that is
	// the dedup, against the store and against this batch alike — and leave it
	// again if the write fails. Nobody can see them in between: s.mu is held.
	var codes [][32]byte
	for _, p := range b.codes {
		if _, dup := s.codes[p.key]; !dup {
			s.codes[p.key] = loc{s.size + int64(len(buf)) + recHeaderLen, uint32(len(p.enc))}
			codes = append(codes, p.key)
			buf = appendRecord(buf, recCode, p.key, p.enc)
		}
	}
	puts := 0
	for i := range b.nodes {
		p := &b.nodes[i]
		p.slot = 0
		if s.idx.find(&p.key) == 0 {
			p.slot = s.idx.insert(entry{key: p.key, loc: loc{s.size + int64(len(buf)) + recHeaderLen, uint32(len(p.enc))}})
			buf = appendRecord(buf, recPut, p.key, p.enc)
			puts++
		}
	}
	buf = appendRecord(buf, recCommit, root, nil)
	if cap(buf) <= maxKeptBuf {
		s.buf = buf[:0]
	}

	if err := s.appendBarrier(buf); err != nil {
		for _, h := range codes {
			delete(s.codes, h)
		}
		for i := range b.nodes {
			if p := &b.nodes[i]; p.slot != 0 {
				s.idx.remove(p.slot)
			}
		}
		return err
	}

	// Every record is in (so edge targets resolve): count the edges of each
	// newly written node, then the root anchor.
	s.puts.Add(uint64(puts))
	has := s.has
	for i := range b.nodes {
		if p := &b.nodes[i]; p.slot != 0 {
			s.countEdges(p.slot, p.enc, has)
		}
	}
	s.roots[root]++
	if j := s.idx.find(&root); j != 0 {
		s.idx.slab[j].refs++
	}
	return nil
}

// Release dereferences a live root: its anchor is dropped and every node
// whose reference count reaches zero is pruned (del records, cascading into
// children — including storage tries hanging off pruned account leaves).
// The del records precede the release barrier, so a torn release is wholly
// discarded on reopen: at worst a leak, never a dangling root.
//
// The cascade runs on the index itself — a count is dropped where it lies and
// logged, a pruned node is flagged dead — and a failed read or write replays
// the log and clears the flags: the store is as it was before the call.
func (s *Store) Release(root [32]byte) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return ErrClosed
	}
	if s.roots[root] == 0 {
		return fmt.Errorf("%w: %x", ErrNotLiveRoot, root)
	}

	x, r, has := &s.idx, &s.rel, s.has
	r.undo, r.dead, r.stack = r.undo[:0], r.dead[:0], r.stack[:0]
	defer func() {
		if err != nil {
			for _, j := range r.undo {
				x.slab[j].refs++
			}
			for _, j := range r.dead {
				x.slab[j].flags &^= flagDead
			}
		}
	}()

	if j := x.find(&root); j != 0 {
		s.drop(j)
	}
	for len(r.stack) > 0 {
		j := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		e := &x.slab[j]
		e.flags |= flagDead // Edges' has() no longer sees it
		r.dead = append(r.dead, j)
		if e.flags&flagNoEdges != 0 {
			continue
		}
		// One payload buffer: only a dead node's position outlives its visit.
		if r.enc, err = s.readPayload(e.loc, r.enc); err != nil {
			return fmt.Errorf("store: release cascade: %w", err)
		}
		edges := s.opts.Edges(r.enc, has)
		for i := range edges {
			if c := x.find(&edges[i]); c != 0 {
				s.drop(c)
			}
		}
	}

	buf := s.buf[:0]
	for _, j := range r.dead {
		buf = appendRecord(buf, recDel, x.slab[j].key, nil)
	}
	buf = appendRecord(buf, recRelease, root, nil)
	s.buf = buf[:0]
	if err = s.appendBarrier(buf); err != nil {
		return err
	}

	// Durable: the anchor goes, the pruned nodes leave the index.
	s.dropAnchor(root)
	for _, j := range r.dead {
		if s.opts.Pruned != nil {
			s.opts.Pruned(x.slab[j].key)
		}
		x.remove(j)
	}
	s.dels.Add(uint64(len(r.dead)))
	return nil
}

// drop takes one reference off the node at slab position j, logs it, and
// queues the node for pruning when that was its last.
func (s *Store) drop(j uint32) {
	r := &s.rel
	r.undo = append(r.undo, j)
	e := &s.idx.slab[j]
	if e.refs--; e.refs == 0 {
		r.stack = append(r.stack, j)
	}
}

// LiveRoots returns the anchored roots (sorted for determinism); the count
// includes multiplicity via Anchors.
func (s *Store) LiveRoots() [][32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][32]byte, 0, len(s.roots))
	for r := range s.roots {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) })
	return out
}

// Anchors returns how many times a root is anchored (0 = not live).
func (s *Store) Anchors(root [32]byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.roots[root]
}

// Refs returns a live node's reference count (0, false when absent) —
// diagnostics and the fuzz oracle.
func (s *Store) Refs(h [32]byte) (int32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.idx.find(&h)
	return s.idx.slab[j].refs, j != 0
}

// Len returns the number of live node records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.len()
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	nodes, roots, size := s.idx.len(), len(s.roots), s.size
	s.mu.Unlock()
	return Stats{
		DiskReads:     s.diskReads.Load(),
		DiskBytesRead: s.bytesRead.Load(),
		Puts:          s.puts.Load(),
		Dels:          s.dels.Load(),
		Nodes:         nodes,
		Roots:         roots,
		FileBytes:     size,
	}
}

// Phantoms returns every live node NOT reachable from a live root — the
// crash battery's "no phantom nodes" oracle. A healthy store always returns
// an empty slice: commits are atomic at barrier granularity and releases
// cascade exactly.
func (s *Store) Phantoms() ([][32]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	x := &s.idx
	reached, has := make([]bool, len(x.slab)), s.has
	var stack []uint32
	for r := range s.roots {
		if j := x.find(&r); j != 0 {
			stack = append(stack, j)
		}
	}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[j] {
			continue
		}
		reached[j] = true
		enc, err := s.readPayload(x.slab[j].loc, nil)
		if err != nil {
			return nil, err
		}
		for _, child := range s.opts.Edges(enc, has) {
			if c := x.find(&child); c != 0 && !reached[c] {
				stack = append(stack, c)
			}
		}
	}
	var phantoms [][32]byte
	for j := 1; j < len(x.slab); j++ {
		if x.slab[j].off != 0 && !reached[j] {
			phantoms = append(phantoms, x.slab[j].key)
		}
	}
	slices.SortFunc(phantoms, func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) })
	return phantoms, nil
}

// Path returns the backing file's path.
func (s *Store) Path() string { return s.path }

// Size returns the file size in bytes.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Sync flushes the file to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return ErrClosed
	}
	return s.f.Sync()
}

// Close syncs and closes the file. Further operations fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return nil
	}
	s.open = false
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// ReadFileForTest returns the raw file contents (crash-battery helper).
func (s *Store) ReadFileForTest() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return buf, nil
}
