package trie

import (
	"bytes"
	"testing"
)

// FuzzTrieBatchVsUpdate: Batch must be observationally identical to a
// sequential Update loop — same root hash, same Get results — for any key
// set, including duplicates (last write wins) and empty values (deletes).
// The fuzzer derives a key/value program from its input: each record is
// keyLen, key bytes, valLen, value bytes; valLen 0 encodes a delete.
func FuzzTrieBatchVsUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 'a', 1, 'x', 1, 'b', 1, 'y'})
	f.Add([]byte{2, 'a', 'b', 1, 'x', 2, 'a', 'c', 1, 'y', 2, 'a', 'b', 0}) // shared prefix + delete
	f.Add([]byte{1, 'k', 1, '1', 1, 'k', 1, '2'})                           // duplicate key, last wins
	f.Add(bytes.Repeat([]byte{3, 0xaa, 0xbb, 0xcc, 1, 0x11}, 8))
	// A duplicate one-byte key's writes in batch order, next to other keys:
	// the last of the run wins, whether it is a put or a delete.
	f.Add([]byte{0, 'j', 1, '0', 0, 'k', 1, '1', 0, 'k', 0, 0, 'l', 0, 0, 'm', 1, '2'})      // put → delete
	f.Add([]byte{0, 'a', 0, 0, 'k', 0, 0, 'k', 1, '1', 0, 'a', 1, '3', 1, 'a', 'b', 0})      // delete → put
	f.Add([]byte{0, 'k', 1, '1', 0, 'b', 0, 0, 'k', 1, '2', 0, 'c', 1, '3', 0, 'k', 1, '4'}) // put → put

	f.Fuzz(func(t *testing.T, data []byte) {
		var keys, vals [][]byte
		for len(data) >= 2 {
			kl := int(data[0]%8) + 1
			data = data[1:]
			if len(data) < kl+1 {
				break
			}
			key := append([]byte(nil), data[:kl]...)
			data = data[kl:]
			vl := int(data[0] % 6) // 0 = delete
			data = data[1:]
			if len(data) < vl {
				break
			}
			val := append([]byte(nil), data[:vl]...)
			data = data[vl:]
			keys = append(keys, key)
			vals = append(vals, val)
		}

		// Seed both tries with a fixed population so deletes and
		// overwrites of pre-existing keys are exercised too.
		seedK := [][]byte{{'a'}, {'a', 'b'}, {'a', 'b', 'c'}, {0xff}, {0x00, 0x01}}
		loop, batch := New(), New()
		for _, k := range seedK {
			loop.Update(k, []byte{0xee})
			batch.Update(k, []byte{0xee})
		}

		for i := range keys {
			loop.Update(keys[i], vals[i])
		}
		batch.Batch(keys, vals)

		if lh, bh := loop.Hash(), batch.Hash(); lh != bh {
			t.Fatalf("Batch root %x != Update-loop root %x for %d pairs", bh, lh, len(keys))
		}
		for i := range keys {
			if got, want := batch.Get(keys[i]), loop.Get(keys[i]); !bytes.Equal(got, want) {
				t.Fatalf("Get(%x) = %x after Batch, %x after Update loop", keys[i], got, want)
			}
		}
	})
}
