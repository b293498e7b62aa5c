// Package crypto implements the Keccak-256 hash used throughout Ethereum
// for state roots, transaction hashes, storage-slot addressing and contract
// addresses.
//
// This is legacy Keccak (multi-rate padding starting with 0x01), not the
// NIST SHA3-256 variant (0x06): Ethereum predates FIPS 202 finalization.
package crypto

import (
	"encoding/binary"
	"math/bits"
)

// roundConstants are the keccak-f[1600] iota round constants.
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF applies the 24-round keccak-f[1600] permutation in place. The
// round is fully unrolled over 25 lane locals (lane (x, y) is a[x+5y]): θ's
// column correction d is folded into the ρ rotation input, π is the choice of
// source lane per output row, and χ+ι write the next state e, so no lane
// touches memory between the load below and the store at the end.
func keccakF(a *[25]uint64) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	a5, a6, a7, a8, a9 := a[5], a[6], a[7], a[8], a[9]
	a10, a11, a12, a13, a14 := a[10], a[11], a[12], a[13], a[14]
	a15, a16, a17, a18, a19 := a[15], a[16], a[17], a[18], a[19]
	a20, a21, a22, a23, a24 := a[20], a[21], a[22], a[23], a[24]
	for _, rc := range roundConstants {
		// θ: column parities c, column corrections d.
		c0 := a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 := a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 := a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 := a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 := a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)

		// One block per row of the next state: ρ∘π picks and rotates its
		// five source lanes, χ mixes them; ι lands on lane 0.
		b0 := a0 ^ d0
		b1 := bits.RotateLeft64(a6^d1, 44)
		b2 := bits.RotateLeft64(a12^d2, 43)
		b3 := bits.RotateLeft64(a18^d3, 21)
		b4 := bits.RotateLeft64(a24^d4, 14)
		e0 := b0 ^ (^b1 & b2) ^ rc
		e1 := b1 ^ (^b2 & b3)
		e2 := b2 ^ (^b3 & b4)
		e3 := b3 ^ (^b4 & b0)
		e4 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a3^d3, 28)
		b1 = bits.RotateLeft64(a9^d4, 20)
		b2 = bits.RotateLeft64(a10^d0, 3)
		b3 = bits.RotateLeft64(a16^d1, 45)
		b4 = bits.RotateLeft64(a22^d2, 61)
		e5 := b0 ^ (^b1 & b2)
		e6 := b1 ^ (^b2 & b3)
		e7 := b2 ^ (^b3 & b4)
		e8 := b3 ^ (^b4 & b0)
		e9 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a1^d1, 1)
		b1 = bits.RotateLeft64(a7^d2, 6)
		b2 = bits.RotateLeft64(a13^d3, 25)
		b3 = bits.RotateLeft64(a19^d4, 8)
		b4 = bits.RotateLeft64(a20^d0, 18)
		e10 := b0 ^ (^b1 & b2)
		e11 := b1 ^ (^b2 & b3)
		e12 := b2 ^ (^b3 & b4)
		e13 := b3 ^ (^b4 & b0)
		e14 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a4^d4, 27)
		b1 = bits.RotateLeft64(a5^d0, 36)
		b2 = bits.RotateLeft64(a11^d1, 10)
		b3 = bits.RotateLeft64(a17^d2, 15)
		b4 = bits.RotateLeft64(a23^d3, 56)
		e15 := b0 ^ (^b1 & b2)
		e16 := b1 ^ (^b2 & b3)
		e17 := b2 ^ (^b3 & b4)
		e18 := b3 ^ (^b4 & b0)
		e19 := b4 ^ (^b0 & b1)

		b0 = bits.RotateLeft64(a2^d2, 62)
		b1 = bits.RotateLeft64(a8^d3, 55)
		b2 = bits.RotateLeft64(a14^d4, 39)
		b3 = bits.RotateLeft64(a15^d0, 41)
		b4 = bits.RotateLeft64(a21^d1, 2)
		e20 := b0 ^ (^b1 & b2)
		e21 := b1 ^ (^b2 & b3)
		e22 := b2 ^ (^b3 & b4)
		e23 := b3 ^ (^b4 & b0)
		e24 := b4 ^ (^b0 & b1)

		a0, a1, a2, a3, a4 = e0, e1, e2, e3, e4
		a5, a6, a7, a8, a9 = e5, e6, e7, e8, e9
		a10, a11, a12, a13, a14 = e10, e11, e12, e13, e14
		a15, a16, a17, a18, a19 = e15, e16, e17, e18, e19
		a20, a21, a22, a23, a24 = e20, e21, e22, e23, e24
	}
	a[0], a[1], a[2], a[3], a[4] = a0, a1, a2, a3, a4
	a[5], a[6], a[7], a[8], a[9] = a5, a6, a7, a8, a9
	a[10], a[11], a[12], a[13], a[14] = a10, a11, a12, a13, a14
	a[15], a[16], a[17], a[18], a[19] = a15, a16, a17, a18, a19
	a[20], a[21], a[22], a[23], a[24] = a20, a21, a22, a23, a24
}

// rate is the sponge rate in bytes for 256-bit output: 1600/8 - 2*32.
const rate = 136

// Keccak is a streaming Keccak-256 hasher. The zero value is ready to use.
type Keccak struct {
	state  [25]uint64
	buf    [rate]byte
	buffed int
}

// NewKeccak returns a new streaming Keccak-256 hasher.
func NewKeccak() *Keccak { return &Keccak{} }

// Reset restores the hasher to its initial state.
func (k *Keccak) Reset() { *k = Keccak{} }

// Write absorbs p into the sponge. It never fails.
func (k *Keccak) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if k.buffed == 0 && len(p) >= rate {
			// Whole blocks skip the staging buffer.
			k.absorb(p[:rate])
			p = p[rate:]
			continue
		}
		c := copy(k.buf[k.buffed:], p)
		k.buffed += c
		p = p[c:]
		if k.buffed == rate {
			k.absorb(k.buf[:])
			k.buffed = 0
		}
	}
	return n, nil
}

// absorb XORs one rate-sized block into the state and permutes.
func (k *Keccak) absorb(block []byte) {
	_ = block[rate-1]
	for i := 0; i < rate/8; i++ {
		k.state[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	keccakF(&k.state)
}

// Sum appends the 32-byte digest to b. The hasher can keep absorbing
// afterwards as if Sum had not been called.
func (k *Keccak) Sum(b []byte) []byte {
	var out [32]byte
	k.SumInto(&out)
	return append(b, out[:]...)
}

// SumInto writes the 32-byte digest into dst without allocating. Like Sum,
// the hasher can keep absorbing afterwards as if SumInto had not been
// called. This is the zero-alloc primitive the trie/state hot paths use.
func (k *Keccak) SumInto(dst *[32]byte) {
	// Work on a copy so the caller can continue writing.
	dup := *k
	dup.finish(dst)
}

// finish pads and squeezes in place: the sponge is spent afterwards, which
// is all a one-shot hash needs and saves SumInto's copy of the whole state.
func (k *Keccak) finish(dst *[32]byte) {
	// Legacy Keccak multi-rate padding: 0x01 ... 0x80 (possibly same byte).
	k.buf[k.buffed] = 0x01
	clear(k.buf[k.buffed+1:])
	k.buf[rate-1] |= 0x80
	k.absorb(k.buf[:])
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(dst[i*8:], k.state[i])
	}
}

// Size returns the digest length in bytes.
func (k *Keccak) Size() int { return 32 }

// Keccak256 returns the Keccak-256 digest of the concatenation of the inputs.
func Keccak256(data ...[]byte) []byte {
	var out [32]byte
	Keccak256Into(&out, data...)
	return out[:]
}

// Sum256 returns the Keccak-256 digest of data as a fixed array.
func Sum256(data []byte) (out [32]byte) {
	Keccak256Into(&out, data)
	return out
}

// Keccak256Into writes the Keccak-256 digest of the concatenation of the
// inputs into dst. It allocates nothing: the sponge lives on the stack and
// the digest lands in caller-owned memory. This is the primitive behind the
// state commit path's hashed-key cache.
func Keccak256Into(dst *[32]byte, data ...[]byte) {
	var k Keccak
	for _, d := range data {
		k.Write(d)
	}
	k.finish(dst)
}
