package rlp

import (
	"bytes"
	"testing"
)

// TestStartEndListBoundaries holds StartList/EndList equal to EncodeList at
// every payload length where the list header changes width — 55/56 (the
// patched one-byte header against the shifted long form), 255/256 and
// 65 535/65 536 (one more length byte each) — appending into an empty, a
// non-empty and an exactly full dst, and nested one level deep.
func TestStartEndListBoundaries(t *testing.T) {
	prefix := []byte("kept")
	for _, size := range []int{0, 1, 54, 55, 56, 57, 255, 256, 257, 65535, 65536, 65537} {
		// One string item whose encoding is exactly size bytes long (two
		// items where a single string cannot hit the length).
		var items [][]byte
		switch {
		case size == 0:
		case size <= 56:
			items = [][]byte{EncodeString(bytes.Repeat([]byte{0xaa}, size-1))}
		default:
			items = [][]byte{EncodeString(bytes.Repeat([]byte{0xaa}, 10)), nil}
			items[1] = bytes.Repeat([]byte{0x01}, size-len(items[0])) // single-byte items
		}
		payload := bytes.Join(items, nil)
		if len(payload) != size {
			t.Fatalf("test bug: payload is %d bytes, want %d", len(payload), size)
		}
		want := EncodeList(payload)

		for _, dst := range [][]byte{nil, append([]byte(nil), prefix...), append(make([]byte, 0, len(prefix)), prefix...)} {
			had := len(dst)
			out, start := StartList(dst)
			out = EndList(append(out, payload...), start)
			if !bytes.Equal(out[:had], prefix[:had]) || !bytes.Equal(out[had:], want) {
				t.Errorf("size %d into len %d cap %d: got %d bytes, want %d", size, had, cap(dst), len(out)-had, len(want))
			}
		}

		// Nested: the inner list's shift must not disturb the outer's start.
		out, outer := StartList(nil)
		out = AppendUint(out, 7)
		out, inner := StartList(out)
		out = EndList(append(out, payload...), inner)
		out = EndList(out, outer)
		if nested := EncodeList(EncodeUint(7), want); !bytes.Equal(out, nested) {
			t.Errorf("size %d nested: got %x…, want %x…", size, out[:min(8, len(out))], nested[:min(8, len(nested))])
		}
		if n, err := CountItems(payload); err != nil || (size > 0 && n == 0) {
			t.Errorf("size %d: CountItems = %d, %v", size, n, err)
		}
	}
}
