package store

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"
)

// TestEntrySize: an entry's edge list position and count sit where its
// padding was, so the slab costs what it did before the lists.
func TestEntrySize(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 56 {
		t.Fatalf("entry is %d bytes, want 56", size)
	}
}

// FuzzNodeIndexVsMap drives the node index and a map[[32]byte]entry oracle
// with one op stream — insert, lookup, in-place count change, edge list,
// delete — over 256 keys that share their first eight bytes with half
// of the others, so the prefix never decides a lookup, the full-key compare
// always does, and every delete shifts a cluster back; one of the two
// prefixes is all ones, so its cluster starts in the table's last slot and
// wraps. 256 keys carry the table through five growths. The edge-list op
// gives an entry a list whose length is the next byte, replacing any it had;
// the oracle keeps a copy, and a delete frees it. After every op the two
// agree on the key's entry, on the size and on every live entry's list, and
// the arena's live words are the oracle's. A list op appends only when no
// vacated list of its length is pooled, and leaves the arena at most twice
// the live words when it does. At the end the two agree on every key.
func FuzzNodeIndexVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 2, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{0, 7, 0, 9, 3, 7, 0, 11, 2, 9}, 20))
	var grow []byte
	for k := 0; k < 256; k++ {
		grow = append(grow, 0, byte(k))
	}
	for k := 0; k < 256; k += 3 {
		grow = append(grow, 3, byte(k))
	}
	f.Add(grow)
	// Lists on 64 entries, some too long to pool, then deletes and new lists
	// in turn: pooled lists are reused, and the arena is compacted again and
	// again under live lists.
	var churn []byte
	for k := 0; k < 64; k++ {
		churn = append(churn, 0, byte(k), 2, byte(k), byte(k%9*4))
	}
	for k := 0; k < 64; k++ {
		churn = append(churn, 3, byte(k), 0, byte(k+64), 2, byte(k+64), byte(k%5), 2, byte(k+1), 3)
	}
	f.Add(churn)

	f.Fuzz(func(t *testing.T, data []byte) {
		x := newNodeIndex()
		oracle := map[[32]byte]entry{}
		lists := map[[32]byte][]uint32{}
		key := func(k byte) (h [32]byte) {
			copy(h[:], "cluster!")
			if k&1 == 1 {
				copy(h[:], "\xff\xff\xff\xff\xff\xff\xff\xff")
			}
			h[31] = k
			return h
		}
		check := func(h [32]byte) {
			t.Helper()
			j := x.find(&h)
			want, ok := oracle[h]
			got := x.slab[j]
			got.list, got.n = 0, 0 // where a list lies is the arena's business
			if (j != 0) != ok || (ok && got != want) {
				t.Fatalf("key %d: index has %+v (position %d), oracle %+v (%v)", h[31], x.slab[j], j, want, ok)
			}
			if x.len() != len(oracle) {
				t.Fatalf("index holds %d entries, oracle %d", x.len(), len(oracle))
			}
			if got := x.edges(j); ok && !slices.Equal(got, lists[h]) {
				t.Fatalf("key %d: list %v, oracle %v", h[31], got, lists[h])
			}
		}
		checkLists := func() (live int) {
			t.Helper()
			for h, list := range lists {
				live += len(list)
				if got := x.edges(x.find(&h)); !slices.Equal(got, list) {
					t.Fatalf("key %d: list %v, oracle %v", h[31], got, list)
				}
			}
			if len(x.arena)-x.vacated != live {
				t.Fatalf("arena of %d words, %d vacated: oracle has %d live", len(x.arena), x.vacated, live)
			}
			return live
		}
		for i := 0; i+1 < len(data); i += 2 {
			h := key(data[i+1])
			j := x.find(&h)
			switch data[i] % 4 {
			case 0: // insert
				if j == 0 {
					e := entry{key: h, off: int64(i) + 1, vlen: uint32(data[i+1])}
					x.insert(e)
					oracle[h] = e
				}
			case 1: // count up, in place
				if j != 0 {
					x.slab[j].refs++
					e := oracle[h]
					e.refs++
					oracle[h] = e
				}
			case 2: // edge list, of the next byte's length
				n := 0
				if i+2 < len(data) {
					n = int(data[i+2])
					i++
				}
				if j != 0 {
					list := make([]uint32, n)
					for k := range list {
						list[k] = uint32(i*256 + k)
					}
					words := len(x.arena)
					x.setEdges(j, list)
					lists[h] = list
					if live := checkLists(); len(x.arena) > words && len(x.arena) > 2*live {
						t.Fatalf("appended a list: arena of %d words for %d live", len(x.arena), live)
					}
					if len(x.arena) > words && n < len(x.pool) && x.pool[n] != 0 {
						t.Fatalf("appended a list of %d edges past a vacated one", n)
					}
				}
			case 3: // delete
				if j != 0 {
					x.remove(j)
					delete(oracle, h)
					delete(lists, h)
				}
			}
			check(h)
			checkLists()
		}
		for k := 0; k < 256; k++ {
			check(key(byte(k)))
		}
		if len(x.table)*3 < x.len()*4 {
			t.Fatalf("table of %d slots for %d entries: over three quarters full", len(x.table), x.len())
		}
	})
}
