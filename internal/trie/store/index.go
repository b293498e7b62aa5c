package store

import "encoding/binary"

// loc locates one record's payload in the file.
type loc struct {
	off  int64
	vlen uint32
}

// entry is one live node: its record, its reference count and its edges.
type entry struct {
	key  [32]byte
	off  int64  // the payload's file offset
	vlen uint32 // and length
	refs int32
	list uint32 // its edges, the slab positions it references: arena[list:][:n]
	n    uint32
}

func (e *entry) at() loc { return loc{e.off, e.vlen} }

// nodeIndex is the store's one node index: a slab of entries mutated where
// they lie (a count changes by one store, not a lookup, a copy and a
// re-insert), found through an open-addressed table. A slot holds the first
// four bytes of the node hash above the entry's slab position; zero is empty
// (position 0 is never handed out). A Keccak output is already uniform, so
// nothing is hashed: a slot's home is its own prefix masked to the table
// size, and a grow or a delete moves slots without touching the slab.
// Probing is linear, a prefix match is confirmed on the full key, and a
// delete shifts the rest of its cluster back — no tombstones.
//
// Each entry's edges lie in one shared arena of slab positions. A vacated
// list of up to 16 edges (a branch's most) is pooled by length, linked through
// its first word, for the next list of that length: a node's new version
// mostly has the old one's edges, so a steady chain's commits take pooled
// places and neither regrow nor compact the arena. Other lists are appended,
// after the live ones are copied into a fresh arena when vacated words
// outnumber them.
type nodeIndex struct {
	slab    []entry
	free    []uint32 // vacated slab positions, reused before the slab grows
	table   []uint64 // power-of-two length, at most three quarters full
	arena   []uint32
	vacated int        // arena words no entry owns
	pool    [17]uint32 // by length: the first vacated list's position + 1
}

func newNodeIndex() nodeIndex { return nodeIndex{slab: make([]entry, 1), table: make([]uint64, 16)} }

func (x *nodeIndex) len() int { return len(x.slab) - 1 - len(x.free) }

func prefixOf(key *[32]byte) uint64 { return uint64(binary.BigEndian.Uint32(key[:4])) << 32 }

// find returns key's slab position, or 0 when it is not stored.
func (x *nodeIndex) find(key *[32]byte) uint32 {
	prefix, mask := prefixOf(key), uint64(len(x.table)-1)
	for i := prefix >> 32 & mask; ; i = (i + 1) & mask {
		slot := x.table[i]
		if slot == 0 {
			return 0
		}
		if slot>>32 == prefix>>32 && x.slab[uint32(slot)].key == *key {
			return uint32(slot)
		}
	}
}

// insert stores e, whose key must not be present, and returns its position.
func (x *nodeIndex) insert(e entry) uint32 {
	var j uint32
	if n := len(x.free); n > 0 {
		j, x.free = x.free[n-1], x.free[:n-1]
		x.slab[j] = e
	} else {
		j = uint32(len(x.slab))
		x.slab = append(x.slab, e)
	}
	if x.len()*4 > len(x.table)*3 {
		old := x.table
		x.table = make([]uint64, 2*len(old))
		for _, slot := range old {
			if slot != 0 {
				x.place(slot)
			}
		}
	}
	x.place(prefixOf(&e.key) | uint64(j))
	return j
}

func (x *nodeIndex) place(slot uint64) {
	mask := uint64(len(x.table) - 1)
	i := slot >> 32 & mask
	for x.table[i] != 0 {
		i = (i + 1) & mask
	}
	x.table[i] = slot
}

// remove vacates slab position j and closes the gap in its probe cluster: a
// later slot moves into the hole unless its home lies between the two.
func (x *nodeIndex) remove(j uint32) {
	mask := uint64(len(x.table) - 1)
	i := prefixOf(&x.slab[j].key) >> 32 & mask
	for uint32(x.table[i]) != j {
		i = (i + 1) & mask
	}
	for k := (i + 1) & mask; x.table[k] != 0; k = (k + 1) & mask {
		if home := x.table[k] >> 32 & mask; (k-home)&mask >= (k-i)&mask {
			x.table[i], i = x.table[k], k
		}
	}
	x.table[i] = 0
	x.vacate(j)
	x.slab[j] = entry{}
	x.free = append(x.free, j)
}

// edges returns the slab positions the node at j references, in Edges order.
func (x *nodeIndex) edges(j uint32) []uint32 {
	e := &x.slab[j]
	return x.arena[e.list:][:e.n]
}

// vacate frees the node at j's list.
func (x *nodeIndex) vacate(j uint32) {
	e := &x.slab[j]
	if n := e.n; n > 0 && int(n) < len(x.pool) {
		x.arena[e.list], x.pool[n] = x.pool[n], e.list+1
	}
	x.vacated += int(e.n)
	e.list, e.n = 0, 0
}

// setEdges records edges as the node at j's list, replacing any it had.
func (x *nodeIndex) setEdges(j uint32, edges []uint32) {
	x.vacate(j)
	n := len(edges)
	if n < len(x.pool) && x.pool[n] != 0 {
		at := x.pool[n] - 1
		x.pool[n] = x.arena[at]
		copy(x.arena[at:], edges)
		x.slab[j].list, x.vacated = at, x.vacated-n
	} else {
		if x.vacated > len(x.arena)-x.vacated {
			x.compact(n)
		}
		x.slab[j].list = uint32(len(x.arena))
		x.arena = append(x.arena, edges...)
	}
	x.slab[j].n = uint32(n)
}

// compact copies the live lists into a fresh arena with room for extra more
// words, dropping the vacated words and the pools.
func (x *nodeIndex) compact(extra int) {
	arena := make([]uint32, 0, len(x.arena)-x.vacated+extra)
	for k := range x.slab {
		edges := x.edges(uint32(k))
		x.slab[k].list = uint32(len(arena))
		arena = append(arena, edges...)
	}
	x.arena, x.vacated, x.pool = arena, 0, [len(x.pool)]uint32{}
}
