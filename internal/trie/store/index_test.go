package store

import (
	"bytes"
	"testing"
)

// FuzzNodeIndexVsMap drives the node index and a map[[32]byte]entry oracle
// with one op stream — insert, lookup, in-place count and flag change, delete
// — over 256 keys that share their first eight bytes with half of the others,
// so the prefix never decides a lookup, the full-key compare always does, and
// every delete shifts a cluster back; one of the two prefixes is all ones, so
// its cluster starts in the table's last slot and wraps. 256 keys carry the
// table through five growths. After every op the two agree on the key's
// entry and on the size; at the end on every key.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		x := newNodeIndex()
		oracle := map[[32]byte]entry{}
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
			if (j != 0) != ok || (ok && x.slab[j] != want) {
				t.Fatalf("key %d: index has %+v (position %d), oracle %+v (%v)", h[31], x.slab[j], j, want, ok)
			}
			if x.len() != len(oracle) {
				t.Fatalf("index holds %d entries, oracle %d", x.len(), len(oracle))
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			h := key(data[i+1])
			j := x.find(&h)
			switch data[i] % 4 {
			case 0: // insert
				if j == 0 {
					e := entry{key: h, loc: loc{off: int64(i) + 1, vlen: uint32(data[i+1])}}
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
			case 2: // flag, in place
				if j != 0 {
					x.slab[j].flags ^= flagNoEdges
					e := oracle[h]
					e.flags ^= flagNoEdges
					oracle[h] = e
				}
			case 3: // delete
				if j != 0 {
					x.remove(j)
					delete(oracle, h)
				}
			}
			check(h)
		}
		for k := 0; k < 256; k++ {
			check(key(byte(k)))
		}
		if len(x.table)*3 < x.len()*4 {
			t.Fatalf("table of %d slots for %d entries: over three quarters full", len(x.table), x.len())
		}
	})
}
