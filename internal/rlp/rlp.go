// Package rlp implements Ethereum's Recursive Length Prefix serialization,
// used to encode trie nodes, transactions, block headers and receipts.
//
// The encoder is builder-style: Append* functions write into a buffer the
// caller owns, StartList/EndList bracket a list whose size is not known until
// its elements are written, and the Encode* helpers allocate; the
// decoder is strict: it rejects non-canonical encodings (dangling bytes,
// non-minimal lengths, single bytes wrapped in a string header).
package rlp

import (
	"errors"
	"fmt"
)

// Kind distinguishes the two RLP item kinds.
type Kind int

const (
	// KindString is a byte-string item.
	KindString Kind = iota
	// KindList is a list item.
	KindList
)

func (k Kind) String() string {
	if k == KindString {
		return "string"
	}
	return "list"
}

// Decoding errors.
var (
	ErrEmpty        = errors.New("rlp: empty input")
	ErrTruncated    = errors.New("rlp: truncated input")
	ErrCanonical    = errors.New("rlp: non-canonical encoding")
	ErrKind         = errors.New("rlp: unexpected item kind")
	ErrTrailing     = errors.New("rlp: trailing bytes after item")
	ErrUintOverflow = errors.New("rlp: uint value exceeds 64 bits")
)

// AppendString appends the RLP encoding of byte-string b to dst.
func AppendString(dst, b []byte) []byte {
	if len(b) == 1 && b[0] < 0x80 {
		return append(dst, b[0])
	}
	dst = appendLength(dst, 0x80, uint64(len(b)))
	return append(dst, b...)
}

// AppendUint appends the RLP encoding of v (minimal big-endian) to dst.
func AppendUint(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, 0x80)
	}
	if v < 0x80 {
		return append(dst, byte(v))
	}
	var buf [8]byte
	n := putMinimalUint(buf[:], v)
	dst = append(dst, 0x80+byte(n))
	return append(dst, buf[8-n:]...)
}

// AppendListHeader appends a list header for a payload of the given size.
func AppendListHeader(dst []byte, payloadSize int) []byte {
	return appendLength(dst, 0xc0, uint64(payloadSize))
}

// StartList opens a list in dst: it reserves the one-byte header a payload of
// up to 55 bytes takes and returns where the payload starts. The caller
// appends the elements and closes the list with EndList; lists nest.
func StartList(dst []byte) (out []byte, payloadStart int) {
	return append(dst, 0xc0), len(dst) + 1
}

// EndList closes the list StartList opened at payloadStart. A payload of up to
// 55 bytes only has its header patched; a longer one is shifted right by the
// one to eight length bytes the long header form adds.
func EndList(dst []byte, payloadStart int) []byte {
	size := len(dst) - payloadStart
	if size <= 55 {
		dst[payloadStart-1] = 0xc0 + byte(size)
		return dst
	}
	var buf [8]byte
	n := putMinimalUint(buf[:], uint64(size))
	dst = append(dst, buf[8-n:]...) // grow by n; overwritten by the shift
	copy(dst[payloadStart+n:], dst[payloadStart:payloadStart+size])
	dst[payloadStart-1] = 0xf7 + byte(n)
	copy(dst[payloadStart:], buf[8-n:])
	return dst
}

// EncodeString returns the RLP encoding of b as a byte-string item.
func EncodeString(b []byte) []byte {
	return AppendString(nil, b)
}

// EncodeUint returns the RLP encoding of v.
func EncodeUint(v uint64) []byte {
	return AppendUint(nil, v)
}

// EncodeList returns the RLP encoding of a list whose elements are the
// given already-encoded items, concatenated in order.
func EncodeList(encodedItems ...[]byte) []byte {
	size := 0
	for _, it := range encodedItems {
		size += len(it)
	}
	out := AppendListHeader(make([]byte, 0, size+9), size)
	for _, it := range encodedItems {
		out = append(out, it...)
	}
	return out
}

// appendLength writes a short or long header with the given offset byte.
func appendLength(dst []byte, offset byte, length uint64) []byte {
	if length <= 55 {
		return append(dst, offset+byte(length))
	}
	var buf [8]byte
	n := putMinimalUint(buf[:], length)
	dst = append(dst, offset+55+byte(n))
	return append(dst, buf[8-n:]...)
}

// putMinimalUint writes v big-endian into the tail of buf (len 8) and
// returns how many bytes were needed.
func putMinimalUint(buf []byte, v uint64) int {
	n := 0
	for x := v; x > 0; x >>= 8 {
		n++
	}
	for i := 0; i < n; i++ {
		buf[7-i] = byte(v >> (8 * i))
	}
	return n
}

// Split reads one item from the front of b, returning its kind, its payload
// (content), and the remaining bytes after the item.
func Split(b []byte) (kind Kind, content, rest []byte, err error) {
	if len(b) == 0 {
		return 0, nil, nil, ErrEmpty
	}
	prefix := b[0]
	switch {
	case prefix < 0x80: // single byte
		return KindString, b[:1], b[1:], nil
	case prefix <= 0xb7: // short string
		n := int(prefix - 0x80)
		if len(b) < 1+n {
			return 0, nil, nil, ErrTruncated
		}
		if n == 1 && b[1] < 0x80 {
			return 0, nil, nil, fmt.Errorf("%w: single byte below 0x80 must not have a header", ErrCanonical)
		}
		return KindString, b[1 : 1+n], b[1+n:], nil
	case prefix <= 0xbf: // long string
		return splitLong(b, prefix-0xb7, KindString)
	case prefix <= 0xf7: // short list
		n := int(prefix - 0xc0)
		if len(b) < 1+n {
			return 0, nil, nil, ErrTruncated
		}
		return KindList, b[1 : 1+n], b[1+n:], nil
	default: // long list
		return splitLong(b, prefix-0xf7, KindList)
	}
}

// splitLong handles the >55-byte header forms.
func splitLong(b []byte, lenOfLen byte, kind Kind) (Kind, []byte, []byte, error) {
	ll := int(lenOfLen)
	if len(b) < 1+ll {
		return 0, nil, nil, ErrTruncated
	}
	if b[1] == 0 {
		return 0, nil, nil, fmt.Errorf("%w: leading zero in length", ErrCanonical)
	}
	if ll > 8 {
		return 0, nil, nil, fmt.Errorf("%w: length of length %d", ErrCanonical, ll)
	}
	var size uint64
	for _, c := range b[1 : 1+ll] {
		size = size<<8 | uint64(c)
	}
	if size <= 55 {
		return 0, nil, nil, fmt.Errorf("%w: long form used for short payload", ErrCanonical)
	}
	if uint64(len(b)-1-ll) < size {
		return 0, nil, nil, ErrTruncated
	}
	start := 1 + ll
	return kind, b[start : start+int(size)], b[start+int(size):], nil
}

// SplitString reads one string item, failing on a list.
func SplitString(b []byte) (content, rest []byte, err error) {
	kind, content, rest, err := Split(b)
	if err != nil {
		return nil, nil, err
	}
	if kind != KindString {
		return nil, nil, fmt.Errorf("%w: want string, got list", ErrKind)
	}
	return content, rest, nil
}

// SplitList reads one list item, failing on a string, and returns the list
// payload (the concatenation of the encoded elements).
func SplitList(b []byte) (content, rest []byte, err error) {
	kind, content, rest, err := Split(b)
	if err != nil {
		return nil, nil, err
	}
	if kind != KindList {
		return nil, nil, fmt.Errorf("%w: want list, got string", ErrKind)
	}
	return content, rest, nil
}

// CountItems returns how many items a list payload holds, validating every
// item header on the way, so a decoder can size its result before filling it.
func CountItems(content []byte) (int, error) {
	n := 0
	for len(content) > 0 {
		var err error
		if _, _, content, err = Split(content); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// ListElems splits a list payload into the full encodings of its elements.
// It counts the elements first so the result is allocated once, at its final
// size, however long the list.
func ListElems(content []byte) ([][]byte, error) {
	n, err := CountItems(content)
	if err != nil || n == 0 {
		return nil, err
	}
	elems := make([][]byte, 0, n)
	for len(content) > 0 {
		_, _, rest, _ := Split(content) // validated by the counting pass
		elems = append(elems, content[:len(content)-len(rest)])
		content = rest
	}
	return elems, nil
}

// DecodeUint decodes a canonical unsigned integer from a string payload.
func DecodeUint(content []byte) (uint64, error) {
	if len(content) > 8 {
		return 0, ErrUintOverflow
	}
	if len(content) > 0 && content[0] == 0 {
		return 0, fmt.Errorf("%w: leading zero in uint", ErrCanonical)
	}
	var v uint64
	for _, c := range content {
		v = v<<8 | uint64(c)
	}
	return v, nil
}

// SplitUint reads one string item and decodes it as a canonical uint.
func SplitUint(b []byte) (v uint64, rest []byte, err error) {
	content, rest, err := SplitString(b)
	if err != nil {
		return 0, nil, err
	}
	v, err = DecodeUint(content)
	return v, rest, err
}
