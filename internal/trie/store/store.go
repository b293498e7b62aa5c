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
// storage-root cross-trie edge). Incremental maintenance in Put/Release
// uses the same extractor, so the two always agree.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
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
	// can only over-retain (leak), never dangle.
	Edges func(enc []byte, has func([32]byte) bool) [][32]byte
	// Sync fsyncs the file after every barrier (off by default: the crash
	// battery models torn tails, not lying disks).
	Sync bool
}

// entry locates one live record and carries its reference count.
type entry struct {
	off  int64
	vlen uint32
	refs int32
}

// Stats is a snapshot of the store's read/write counters.
type Stats struct {
	DiskReads     uint64 // payload reads served from the file
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
	idx   map[[32]byte]entry // live trie nodes
	codes map[[32]byte]entry // contract code blobs (never pruned)
	roots map[[32]byte]int   // live root → anchor count
	opts  Options
	open  bool

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
		idx:   make(map[[32]byte]entry),
		codes: make(map[[32]byte]entry),
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

// recover scans the log, replays every record up to the last valid barrier,
// truncates the file there, and rebuilds reference counts.
func (s *Store) recover() error {
	type rec struct {
		kind byte
		key  [32]byte
		off  int64 // payload offset
		vlen uint32
	}
	var pending []rec // records since the last barrier
	var hdr [recHeaderLen]byte
	offset := int64(0)
	durable := int64(0) // end of the last valid barrier

	apply := func(r rec) {
		switch r.kind {
		case recPut:
			if _, dup := s.idx[r.key]; !dup {
				s.idx[r.key] = entry{off: r.off, vlen: r.vlen}
			}
		case recCode:
			if _, dup := s.codes[r.key]; !dup {
				s.codes[r.key] = entry{off: r.off, vlen: r.vlen}
			}
		case recDel:
			delete(s.idx, r.key)
		case recCommit:
			s.roots[r.key]++
		case recRelease:
			if s.roots[r.key] > 1 {
				s.roots[r.key]--
			} else {
				delete(s.roots, r.key)
			}
		}
	}

	for {
		if _, err := s.f.ReadAt(hdr[:], offset); err != nil {
			break // EOF or torn header
		}
		kind := hdr[0]
		if kind < recPut || kind > recRelease {
			break // corrupt kind
		}
		vlen := binary.BigEndian.Uint32(hdr[33:])
		if vlen > maxPayload {
			break // corrupt length
		}
		body := make([]byte, int(vlen)+recCRCLen)
		if n, err := s.f.ReadAt(body, offset+recHeaderLen); err != nil || n != len(body) {
			break // torn payload
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr[:])
		crc.Write(body[:vlen])
		if crc.Sum32() != binary.BigEndian.Uint32(body[vlen:]) {
			break // checksum mismatch
		}
		r := rec{kind: kind, off: offset + recHeaderLen, vlen: vlen}
		copy(r.key[:], hdr[1:33])
		pending = append(pending, r)
		offset += recHeaderLen + int64(vlen) + recCRCLen
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

// rebuildRefs recomputes every live node's reference count: one linear pass
// over the index extracting edges, plus the live-root anchors. This is the
// same accounting Put/Release maintain incrementally, from the same edge
// extractor, so a reopened store prunes identically to one that never
// closed.
func (s *Store) rebuildRefs() error {
	// Deterministic iteration is not required for correctness (counts are
	// order-independent) but sequential file access is: sort by offset.
	type live struct {
		key [32]byte
		e   entry
	}
	nodes := make([]live, 0, len(s.idx))
	for k, e := range s.idx {
		nodes = append(nodes, live{k, e})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].e.off < nodes[j].e.off })
	has := func(h [32]byte) bool { _, ok := s.idx[h]; return ok }
	var enc []byte // reused: Edges copies the hashes out
	for _, n := range nodes {
		var err error
		if enc, err = s.readPayload(n.e, enc); err != nil {
			return fmt.Errorf("store: rebuild refs: %w", err)
		}
		for _, child := range s.opts.Edges(enc, has) {
			if e, ok := s.idx[child]; ok {
				e.refs++
				s.idx[child] = e
			}
		}
	}
	for root, anchors := range s.roots {
		if e, ok := s.idx[root]; ok {
			e.refs += int32(anchors)
			s.idx[root] = e
		}
	}
	return nil
}

// readPayload reads one record's payload into buf's backing array when it is
// large enough (a caller that is done with each payload before the next read
// passes the previous result back in), else into a fresh buffer.
func (s *Store) readPayload(e entry, buf []byte) ([]byte, error) {
	if cap(buf) < int(e.vlen) {
		buf = make([]byte, e.vlen)
	}
	buf = buf[:e.vlen]
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		return nil, err
	}
	s.diskReads.Add(1)
	s.bytesRead.Add(uint64(e.vlen))
	return buf, nil
}

// Get returns a live node's encoding.
func (s *Store) Get(h [32]byte) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.idx[h]
	open := s.open
	s.mu.Unlock()
	if !open {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %x", ErrNotFound, h)
	}
	return s.readPayload(e, nil) // ReadAt is safe without the lock
}

// Has reports whether a node is live.
func (s *Store) Has(h [32]byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx[h]
	return ok
}

// Code returns a stored code blob.
func (s *Store) Code(h [32]byte) ([]byte, error) {
	s.mu.Lock()
	e, ok := s.codes[h]
	open := s.open
	s.mu.Unlock()
	if !open {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: code %x", ErrNotFound, h)
	}
	return s.readPayload(e, nil)
}

// appendRecord stages one record into buf and returns the new buf. The
// caller tracks offsets from s.size + len(buf) before the append.
func appendRecord(buf []byte, kind byte, key [32]byte, payload []byte) []byte {
	var hdr [recHeaderLen]byte
	hdr[0] = kind
	copy(hdr[1:33], key[:])
	binary.BigEndian.PutUint32(hdr[33:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, payload)
	return binary.BigEndian.AppendUint32(buf, sum)
}

// Batch stages one state commit: put/code records followed by a commit
// barrier anchoring a root. Nothing is visible (or durable) until Commit
// returns; the staging order must be children-before-parents and storage
// tries before the accounts trie, so edge targets always precede their
// referrers.
type Batch struct {
	s      *Store
	nodes  []stagedPut
	codes  []stagedPut
	staged map[[32]byte]int // staged node hash → index into nodes
}

type stagedPut struct {
	key [32]byte
	enc []byte
}

// NewBatch starts a commit batch.
func (s *Store) NewBatch() *Batch {
	return &Batch{s: s, staged: make(map[[32]byte]int)}
}

// Put stages a node unless it is already stored or staged. It returns true
// when the node was newly staged.
func (b *Batch) Put(h [32]byte, enc []byte) bool {
	if _, ok := b.staged[h]; ok {
		return false
	}
	b.s.mu.Lock()
	_, exists := b.s.idx[h]
	b.s.mu.Unlock()
	if exists {
		return false
	}
	b.staged[h] = len(b.nodes)
	b.nodes = append(b.nodes, stagedPut{key: h, enc: enc})
	return true
}

// Has reports whether a node is stored or staged in this batch.
func (b *Batch) Has(h [32]byte) bool {
	if _, ok := b.staged[h]; ok {
		return true
	}
	return b.s.Has(h)
}

// PutCode stages a code blob (idempotent).
func (b *Batch) PutCode(h [32]byte, code []byte) {
	b.codes = append(b.codes, stagedPut{key: h, enc: code})
}

// Commit writes the staged records plus a commit barrier anchoring root,
// then applies them to the index and reference counts. A node staged by a
// concurrent batch that won the race is silently deduplicated.
func (b *Batch) Commit(root [32]byte) error {
	s := b.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return ErrClosed
	}

	type applied struct {
		key  [32]byte
		e    entry
		enc  []byte
		code bool
	}
	// Both sized from what is staged: every record plus the barrier.
	size := recOverhead
	for _, p := range b.codes {
		size += recOverhead + len(p.enc)
	}
	for _, p := range b.nodes {
		size += recOverhead + len(p.enc)
	}
	buf := make([]byte, 0, size)
	writes := make([]applied, 0, len(b.codes)+len(b.nodes))
	off := s.size
	for _, p := range b.codes {
		if _, dup := s.codes[p.key]; dup {
			continue
		}
		already := false
		for _, w := range writes {
			if w.code && w.key == p.key {
				already = true
				break
			}
		}
		if already {
			continue
		}
		e := entry{off: off + int64(len(buf)) + recHeaderLen, vlen: uint32(len(p.enc))}
		buf = appendRecord(buf, recCode, p.key, p.enc)
		writes = append(writes, applied{key: p.key, e: e, code: true})
	}
	for _, p := range b.nodes {
		if _, dup := s.idx[p.key]; dup {
			continue // a concurrent batch stored it first
		}
		e := entry{off: off + int64(len(buf)) + recHeaderLen, vlen: uint32(len(p.enc))}
		buf = appendRecord(buf, recPut, p.key, p.enc)
		writes = append(writes, applied{key: p.key, e: e, enc: p.enc})
	}
	buf = appendRecord(buf, recCommit, root, nil)

	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		return err
	}
	if s.opts.Sync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.size += int64(len(buf))

	// Apply: insert records first (so edge targets resolve), then count
	// edges of every newly written node, then the root anchor.
	for _, w := range writes {
		if w.code {
			s.codes[w.key] = w.e
		} else {
			s.idx[w.key] = w.e
			s.puts.Add(1)
		}
	}
	has := func(h [32]byte) bool { _, ok := s.idx[h]; return ok }
	for _, w := range writes {
		if w.code {
			continue
		}
		for _, child := range s.opts.Edges(w.enc, has) {
			if e, ok := s.idx[child]; ok {
				e.refs++
				s.idx[child] = e
			}
		}
	}
	s.roots[root]++
	if e, ok := s.idx[root]; ok {
		e.refs++
		s.idx[root] = e
	}
	return nil
}

// Release dereferences a live root: its anchor is dropped and every node
// whose reference count reaches zero is pruned (del records, cascading into
// children — including storage tries hanging off pruned account leaves).
// The del records precede the release barrier, so a torn release is wholly
// discarded on reopen: at worst a leak, never a dangling root.
func (s *Store) Release(root [32]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.open {
		return ErrClosed
	}
	if s.roots[root] == 0 {
		return fmt.Errorf("%w: %x", ErrNotLiveRoot, root)
	}

	// Plan the cascade against a scratch view of the counts so nothing is
	// mutated before the records are durably written.
	var dead [][32]byte
	scratch := make(map[[32]byte]int32)
	refsOf := func(h [32]byte) (int32, bool) {
		if r, ok := scratch[h]; ok {
			return r, true
		}
		e, ok := s.idx[h]
		if !ok {
			return 0, false
		}
		return e.refs, true
	}
	has := func(h [32]byte) bool {
		if r, ok := scratch[h]; ok && r < 0 {
			return false
		}
		_, ok := s.idx[h]
		return ok
	}
	var stack [][32]byte
	dec := func(h [32]byte) {
		r, ok := refsOf(h)
		if !ok {
			return
		}
		r--
		scratch[h] = r
		if r == 0 {
			stack = append(stack, h)
		}
	}
	dec(root)
	var enc []byte // one payload buffer for the cascade: only a dead node's key outlives its visit
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		e, ok := s.idx[h]
		if !ok {
			continue
		}
		var err error
		if enc, err = s.readPayload(e, enc); err != nil {
			return fmt.Errorf("store: release cascade: %w", err)
		}
		scratch[h] = -1 // dead marker: has() excludes it for edge extraction
		dead = append(dead, h)
		for _, child := range s.opts.Edges(enc, has) {
			dec(child)
		}
	}

	buf := make([]byte, 0, (len(dead)+1)*recOverhead)
	for _, h := range dead {
		buf = appendRecord(buf, recDel, h, nil)
	}
	buf = appendRecord(buf, recRelease, root, nil)
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		return err
	}
	if s.opts.Sync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.size += int64(len(buf))

	// Apply: anchor drop, surviving refcount updates, pruned nodes out.
	if s.roots[root] > 1 {
		s.roots[root]--
	} else {
		delete(s.roots, root)
	}
	for h, r := range scratch {
		switch {
		case r < 0:
			delete(s.idx, h)
			s.dels.Add(1)
		default:
			if e, ok := s.idx[h]; ok {
				e.refs = r
				s.idx[h] = e
			}
		}
	}
	return nil
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
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
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
	e, ok := s.idx[h]
	return e.refs, ok
}

// Len returns the number of live node records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	nodes, roots, size := len(s.idx), len(s.roots), s.size
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
	reached := make(map[[32]byte]bool, len(s.idx))
	has := func(h [32]byte) bool { _, ok := s.idx[h]; return ok }
	var stack [][32]byte
	for r := range s.roots {
		if _, ok := s.idx[r]; ok {
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[h] {
			continue
		}
		reached[h] = true
		e := s.idx[h]
		enc, err := s.readPayload(e, nil)
		if err != nil {
			return nil, err
		}
		for _, child := range s.opts.Edges(enc, has) {
			if _, ok := s.idx[child]; ok && !reached[child] {
				stack = append(stack, child)
			}
		}
	}
	var phantoms [][32]byte
	for h := range s.idx {
		if !reached[h] {
			phantoms = append(phantoms, h)
		}
	}
	sort.Slice(phantoms, func(i, j int) bool {
		for k := range phantoms[i] {
			if phantoms[i][k] != phantoms[j][k] {
				return phantoms[i][k] < phantoms[j][k]
			}
		}
		return false
	})
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
