// Package uint256 implements fixed-width 256-bit unsigned (and two's
// complement signed) integer arithmetic for the EVM word type.
//
// The representation is four little-endian uint64 limbs. All arithmetic is
// modulo 2^256, matching EVM semantics: division by zero yields zero, and
// signed operations (SDiv, SMod, Slt, Sgt, SRsh) interpret the word as
// two's complement.
//
// Every operation is verified against math/big by property-based tests.
package uint256

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Int is a 256-bit unsigned integer: z = z[0] + z[1]<<64 + z[2]<<128 + z[3]<<192.
type Int [4]uint64

// NewInt returns a new Int set to the uint64 value v.
func NewInt(v uint64) *Int {
	return &Int{v}
}

// Clone returns a copy of z.
func (z *Int) Clone() *Int {
	c := *z
	return &c
}

// Clear sets z to zero and returns it.
func (z *Int) Clear() *Int {
	*z = Int{}
	return z
}

// Set sets z to x and returns z.
func (z *Int) Set(x *Int) *Int {
	*z = *x
	return z
}

// SetUint64 sets z to the uint64 value v and returns z.
func (z *Int) SetUint64(v uint64) *Int {
	*z = Int{v}
	return z
}

// SetBytes interprets buf as a big-endian unsigned integer and sets z to
// that value. Only the low 32 bytes are used if buf is longer.
func (z *Int) SetBytes(buf []byte) *Int {
	if len(buf) > 32 {
		buf = buf[len(buf)-32:]
	}
	*z = Int{}
	var tmp [32]byte
	copy(tmp[32-len(buf):], buf)
	z[3] = binary.BigEndian.Uint64(tmp[0:8])
	z[2] = binary.BigEndian.Uint64(tmp[8:16])
	z[1] = binary.BigEndian.Uint64(tmp[16:24])
	z[0] = binary.BigEndian.Uint64(tmp[24:32])
	return z
}

// Bytes32 returns z as a 32-byte big-endian array.
func (z *Int) Bytes32() [32]byte {
	var b [32]byte
	binary.BigEndian.PutUint64(b[0:8], z[3])
	binary.BigEndian.PutUint64(b[8:16], z[2])
	binary.BigEndian.PutUint64(b[16:24], z[1])
	binary.BigEndian.PutUint64(b[24:32], z[0])
	return b
}

// Bytes returns z as a minimal-length big-endian byte slice (empty for zero).
func (z *Int) Bytes() []byte {
	b := z.Bytes32()
	i := 0
	for i < 32 && b[i] == 0 {
		i++
	}
	return b[i:]
}

// Uint64 returns the low 64 bits of z.
func (z *Int) Uint64() uint64 { return z[0] }

// IsUint64 reports whether z fits in a uint64.
func (z *Int) IsUint64() bool { return z[1]|z[2]|z[3] == 0 }

// IsZero reports whether z is zero.
func (z *Int) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// Eq reports whether z equals x.
func (z *Int) Eq(x *Int) bool { return *z == *x }

// Cmp compares z and x as unsigned integers, returning -1, 0 or +1.
func (z *Int) Cmp(x *Int) int {
	for i := 3; i >= 0; i-- {
		if z[i] < x[i] {
			return -1
		}
		if z[i] > x[i] {
			return 1
		}
	}
	return 0
}

// Lt reports whether z < x (unsigned).
func (z *Int) Lt(x *Int) bool { return z.Cmp(x) < 0 }

// Gt reports whether z > x (unsigned).
func (z *Int) Gt(x *Int) bool { return z.Cmp(x) > 0 }

// Sign returns -1 if z is negative as two's complement, 0 if zero, +1 otherwise.
func (z *Int) Sign() int {
	if z.IsZero() {
		return 0
	}
	if z[3]>>63 == 1 {
		return -1
	}
	return 1
}

// Slt reports whether z < x treating both as two's complement.
func (z *Int) Slt(x *Int) bool {
	zs, xs := z.Sign() < 0, x.Sign() < 0
	switch {
	case zs && !xs:
		return true
	case !zs && xs:
		return false
	default:
		return z.Cmp(x) < 0
	}
}

// Sgt reports whether z > x treating both as two's complement.
func (z *Int) Sgt(x *Int) bool {
	zs, xs := z.Sign() < 0, x.Sign() < 0
	switch {
	case zs && !xs:
		return false
	case !zs && xs:
		return true
	default:
		return z.Cmp(x) > 0
	}
}

// Add sets z = x + y mod 2^256 and returns z.
func (z *Int) Add(x, y *Int) *Int {
	var carry uint64
	z[0], carry = bits.Add64(x[0], y[0], 0)
	z[1], carry = bits.Add64(x[1], y[1], carry)
	z[2], carry = bits.Add64(x[2], y[2], carry)
	z[3], _ = bits.Add64(x[3], y[3], carry)
	return z
}

// AddOverflow sets z = x + y mod 2^256 and also reports whether the sum
// overflowed 256 bits.
func (z *Int) AddOverflow(x, y *Int) (*Int, bool) {
	var carry uint64
	z[0], carry = bits.Add64(x[0], y[0], 0)
	z[1], carry = bits.Add64(x[1], y[1], carry)
	z[2], carry = bits.Add64(x[2], y[2], carry)
	z[3], carry = bits.Add64(x[3], y[3], carry)
	return z, carry != 0
}

// Sub sets z = x - y mod 2^256 and returns z.
func (z *Int) Sub(x, y *Int) *Int {
	var borrow uint64
	z[0], borrow = bits.Sub64(x[0], y[0], 0)
	z[1], borrow = bits.Sub64(x[1], y[1], borrow)
	z[2], borrow = bits.Sub64(x[2], y[2], borrow)
	z[3], _ = bits.Sub64(x[3], y[3], borrow)
	return z
}

// SubUnderflow sets z = x - y mod 2^256 and also reports whether x < y.
func (z *Int) SubUnderflow(x, y *Int) (*Int, bool) {
	var borrow uint64
	z[0], borrow = bits.Sub64(x[0], y[0], 0)
	z[1], borrow = bits.Sub64(x[1], y[1], borrow)
	z[2], borrow = bits.Sub64(x[2], y[2], borrow)
	z[3], borrow = bits.Sub64(x[3], y[3], borrow)
	return z, borrow != 0
}

// Neg sets z = -x mod 2^256 and returns z.
func (z *Int) Neg(x *Int) *Int {
	return z.Sub(&Int{}, x)
}

// mulAdd returns x*y + a + b as a 128-bit (hi, lo) pair; it cannot overflow.
func mulAdd(x, y, a, b uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(x, y)
	var c uint64
	lo, c = bits.Add64(lo, a, 0)
	hi += c
	lo, c = bits.Add64(lo, b, 0)
	hi += c
	return hi, lo
}

// Mul sets z = x * y mod 2^256 and returns z: the schoolbook product unrolled
// row by row, each row stopping at limb 3, where the high halves fall off the
// word and a plain wrapping multiply is enough.
func (z *Int) Mul(x, y *Int) *Int {
	if x.IsUint64() && y.IsUint64() {
		hi, lo := bits.Mul64(x[0], y[0])
		*z = Int{lo, hi}
		return z
	}
	var r0, r1, r2, r3, c uint64
	c, r0 = bits.Mul64(x[0], y[0])
	c, r1 = mulAdd(x[0], y[1], c, 0)
	c, r2 = mulAdd(x[0], y[2], c, 0)
	r3 = x[0]*y[3] + c

	c, r1 = mulAdd(x[1], y[0], r1, 0)
	c, r2 = mulAdd(x[1], y[1], r2, c)
	r3 += x[1]*y[2] + c

	c, r2 = mulAdd(x[2], y[0], r2, 0)
	r3 += x[2]*y[1] + c

	r3 += x[3] * y[0]
	*z = Int{r0, r1, r2, r3}
	return z
}

// mulFull computes the full 512-bit product of x and y as 8 little-endian limbs.
func mulFull(x, y *Int) [8]uint64 {
	var res [8]uint64
	for i := 0; i < 4; i++ {
		if x[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; j < 4; j++ {
			carry, res[i+j] = mulAdd(x[i], y[j], carry, res[i+j])
		}
		res[i+4] = carry
	}
	return res
}

// limbs returns the number of significant 64-bit words in z (0 for zero).
func (z *Int) limbs() int {
	for i := 3; i >= 0; i-- {
		if z[i] != 0 {
			return i + 1
		}
	}
	return 0
}

// BitLen returns the number of bits required to represent z.
func (z *Int) BitLen() int {
	n := z.limbs()
	if n == 0 {
		return 0
	}
	return (n-1)*64 + bits.Len64(z[n-1])
}

// udivremBy1 divides the normalized words u by the single normalized word d,
// storing the quotient in quot[0:len(u)-1] and returning the remainder.
func udivremBy1(quot, u []uint64, d uint64) (rem uint64) {
	rem = u[len(u)-1]
	for j := len(u) - 2; j >= 0; j-- {
		quot[j], rem = bits.Div64(rem, u[j], d)
	}
	return rem
}

// subMulTo computes x -= y * multiplier in place and returns the borrow word.
func subMulTo(x, y []uint64, multiplier uint64) uint64 {
	var borrow uint64
	for i := 0; i < len(x); i++ {
		s, carry1 := bits.Sub64(x[i], borrow, 0)
		ph, pl := bits.Mul64(y[i], multiplier)
		t, carry2 := bits.Sub64(s, pl, 0)
		x[i] = t
		borrow = ph + carry1 + carry2
	}
	return borrow
}

// addTo computes x += y in place and returns the carry-out.
func addTo(x, y []uint64) uint64 {
	var carry uint64
	for i := 0; i < len(x); i++ {
		x[i], carry = bits.Add64(x[i], y[i], carry)
	}
	return carry
}

// udivremKnuth performs Knuth's Algorithm D on normalized operands:
// u (dividend, len(u) >= len(d)+1, top word may be zero) divided by
// d (divisor, len(d) >= 2, top bit of d[len(d)-1] set). The quotient is
// written to quot[0:len(u)-len(d)] and the remainder is left in u[0:len(d)].
func udivremKnuth(quot, u, d []uint64) {
	n := len(d)
	dh := d[n-1]
	dl := d[n-2]
	for j := len(u) - n - 1; j >= 0; j-- {
		u2, u1, u0 := u[j+n], u[j+n-1], u[j+n-2]
		var qhat, rhat uint64
		if u2 >= dh {
			// Quotient digit would overflow; clamp and rely on add-back.
			qhat = ^uint64(0)
		} else {
			qhat, rhat = bits.Div64(u2, u1, dh)
			for {
				ph, pl := bits.Mul64(qhat, dl)
				if ph < rhat || (ph == rhat && pl <= u0) {
					break
				}
				qhat--
				rhat += dh
				if rhat < dh { // rhat overflowed, qhat is now small enough
					break
				}
			}
		}
		borrow := subMulTo(u[j:j+n], d, qhat)
		u[j+n] = u2 - borrow
		if u2 < borrow {
			qhat--
			u[j+n] += addTo(u[j:j+n], d)
		}
		quot[j] = qhat
	}
}

// udivrem divides the (up to 8-word) dividend u by the nonzero divisor d,
// writing the quotient into quot (which must have len >= len(u)) and
// returning the 256-bit remainder. It normalizes per Knuth's Algorithm D.
func udivrem(quot []uint64, u []uint64, d *Int) (rem Int) {
	dLen := d.limbs()
	shift := uint(bits.LeadingZeros64(d[dLen-1]))

	var dn [4]uint64
	for i := dLen - 1; i > 0; i-- {
		dn[i] = d[i]<<shift | d[i-1]>>(64-shift)
	}
	dn[0] = d[0] << shift

	uLen := 0
	for i := len(u) - 1; i >= 0; i-- {
		if u[i] != 0 {
			uLen = i + 1
			break
		}
	}
	if uLen < dLen {
		for i := 0; i < uLen; i++ {
			rem[i] = u[i]
		}
		return rem
	}

	var unStorage [9]uint64
	un := unStorage[:uLen+1]
	un[uLen] = u[uLen-1] >> (64 - shift)
	for i := uLen - 1; i > 0; i-- {
		un[i] = u[i]<<shift | u[i-1]>>(64-shift)
	}
	un[0] = u[0] << shift

	if dLen == 1 {
		r := udivremBy1(quot, un, dn[0])
		rem[0] = r >> shift
		return rem
	}

	udivremKnuth(quot, un, dn[:dLen])

	for i := 0; i < dLen-1; i++ {
		rem[i] = un[i]>>shift | un[i+1]<<(64-shift)
	}
	rem[dLen-1] = un[dLen-1] >> shift
	return rem
}

// Div sets z = x / y (unsigned); division by zero yields zero (EVM semantics).
func (z *Int) Div(x, y *Int) *Int {
	if y.IsZero() || y.Gt(x) {
		return z.Clear()
	}
	if x.Eq(y) {
		return z.SetUint64(1)
	}
	if x.IsUint64() {
		return z.SetUint64(x[0] / y[0])
	}
	var quot [8]uint64
	u := [8]uint64{x[0], x[1], x[2], x[3]}
	udivrem(quot[:], u[:4], y)
	z[0], z[1], z[2], z[3] = quot[0], quot[1], quot[2], quot[3]
	return z
}

// Mod sets z = x % y (unsigned); modulo zero yields zero (EVM semantics).
func (z *Int) Mod(x, y *Int) *Int {
	if y.IsZero() || x.Eq(y) {
		return z.Clear()
	}
	if y.Gt(x) {
		return z.Set(x)
	}
	if x.IsUint64() {
		return z.SetUint64(x[0] % y[0])
	}
	var quot [8]uint64
	u := [8]uint64{x[0], x[1], x[2], x[3]}
	rem := udivrem(quot[:], u[:4], y)
	*z = rem
	return z
}

// DivMod sets z = x / y and m = x % y in one pass.
func (z *Int) DivMod(x, y *Int, m *Int) (*Int, *Int) {
	if y.IsZero() {
		return z.Clear(), m.Clear()
	}
	var quot [8]uint64
	u := [8]uint64{x[0], x[1], x[2], x[3]}
	rem := udivrem(quot[:], u[:4], y)
	*m = rem
	z[0], z[1], z[2], z[3] = quot[0], quot[1], quot[2], quot[3]
	return z, m
}

// SDiv sets z = x / y with both interpreted as two's complement (truncated
// toward zero, EVM SDIV semantics). Division by zero yields zero.
func (z *Int) SDiv(x, y *Int) *Int {
	if y.IsZero() {
		return z.Clear()
	}
	xNeg, yNeg := x.Sign() < 0, y.Sign() < 0
	var xa, ya Int
	xa.Set(x)
	ya.Set(y)
	if xNeg {
		xa.Neg(x)
	}
	if yNeg {
		ya.Neg(y)
	}
	z.Div(&xa, &ya)
	if xNeg != yNeg {
		z.Neg(z)
	}
	return z
}

// SMod sets z = x % y with both interpreted as two's complement; the result
// takes the sign of the dividend (EVM SMOD semantics).
func (z *Int) SMod(x, y *Int) *Int {
	if y.IsZero() {
		return z.Clear()
	}
	xNeg := x.Sign() < 0
	var xa, ya Int
	xa.Set(x)
	ya.Set(y)
	if xNeg {
		xa.Neg(x)
	}
	if y.Sign() < 0 {
		ya.Neg(y)
	}
	z.Mod(&xa, &ya)
	if xNeg {
		z.Neg(z)
	}
	return z
}

// AddMod sets z = (x + y) % m; m == 0 yields zero.
func (z *Int) AddMod(x, y, m *Int) *Int {
	if m.IsZero() {
		return z.Clear()
	}
	var sum Int
	_, carry := sum.AddOverflow(x, y)
	if !carry {
		return z.Mod(&sum, m)
	}
	// 257-bit sum: divide the 5-word value by m.
	u := [8]uint64{sum[0], sum[1], sum[2], sum[3], 1}
	var quot [8]uint64
	rem := udivrem(quot[:], u[:5], m)
	*z = rem
	return z
}

// MulMod sets z = (x * y) % m using the full 512-bit product; m == 0 yields zero.
func (z *Int) MulMod(x, y, m *Int) *Int {
	if m.IsZero() {
		return z.Clear()
	}
	p := mulFull(x, y)
	var quot [8]uint64
	rem := udivrem(quot[:], p[:], m)
	*z = rem
	return z
}

// Exp sets z = base^exponent mod 2^256 by square-and-multiply.
func (z *Int) Exp(base, exponent *Int) *Int {
	res := Int{1}
	b := *base
	bl := exponent.BitLen()
	for i := 0; i < bl; i++ {
		if exponent[i/64]&(1<<(i%64)) != 0 {
			res.Mul(&res, &b)
		}
		if i != bl-1 {
			b.Mul(&b, &b)
		}
	}
	*z = res
	return z
}

// SignExtend sets z to x sign-extended from byte position b (EVM SIGNEXTEND):
// byte b is the most significant retained byte; b >= 31 leaves x unchanged.
func (z *Int) SignExtend(b, x *Int) *Int {
	if !b.IsUint64() || b[0] >= 31 {
		return z.Set(x)
	}
	bitPos := uint(b[0]*8 + 7)
	word := bitPos / 64
	bit := bitPos % 64
	z.Set(x)
	signSet := z[word]&(1<<bit) != 0
	lowMask := uint64(1)<<bit | (uint64(1)<<bit - 1) // bits 0..bitPos inclusive
	if signSet {
		z[word] |= ^lowMask
		for i := word + 1; i < 4; i++ {
			z[i] = ^uint64(0)
		}
	} else {
		z[word] &= lowMask
		for i := word + 1; i < 4; i++ {
			z[i] = 0
		}
	}
	return z
}

// Not sets z = ^x and returns z.
func (z *Int) Not(x *Int) *Int {
	z[0], z[1], z[2], z[3] = ^x[0], ^x[1], ^x[2], ^x[3]
	return z
}

// And sets z = x & y and returns z.
func (z *Int) And(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
	return z
}

// Or sets z = x | y and returns z.
func (z *Int) Or(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]|y[0], x[1]|y[1], x[2]|y[2], x[3]|y[3]
	return z
}

// Xor sets z = x ^ y and returns z.
func (z *Int) Xor(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
	return z
}

// Byte sets z to byte number n of x, counting from the most significant
// (EVM BYTE semantics); n >= 32 yields zero.
func (z *Int) Byte(n, x *Int) *Int {
	if !n.IsUint64() || n[0] >= 32 {
		return z.Clear()
	}
	b := x.Bytes32()
	v := b[n[0]]
	return z.SetUint64(uint64(v))
}

// Lsh sets z = x << n and returns z.
func (z *Int) Lsh(x *Int, n uint) *Int {
	if n >= 256 {
		return z.Clear()
	}
	word := n / 64
	bit := n % 64
	var res Int
	for i := 3; i >= int(word); i-- {
		res[i] = x[i-int(word)] << bit
		if bit > 0 && i-int(word)-1 >= 0 {
			res[i] |= x[i-int(word)-1] >> (64 - bit)
		}
	}
	*z = res
	return z
}

// Rsh sets z = x >> n (logical) and returns z.
func (z *Int) Rsh(x *Int, n uint) *Int {
	if n >= 256 {
		return z.Clear()
	}
	word := n / 64
	bit := n % 64
	var res Int
	for i := 0; i < 4-int(word); i++ {
		res[i] = x[i+int(word)] >> bit
		if bit > 0 && i+int(word)+1 < 4 {
			res[i] |= x[i+int(word)+1] << (64 - bit)
		}
	}
	*z = res
	return z
}

// SRsh sets z = x >> n (arithmetic: sign-filling) and returns z.
func (z *Int) SRsh(x *Int, n uint) *Int {
	neg := x.Sign() < 0
	if n >= 256 {
		if neg {
			z[0], z[1], z[2], z[3] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
			return z
		}
		return z.Clear()
	}
	z.Rsh(x, n)
	if neg && n > 0 {
		var mask Int
		mask.Not(&Int{})
		mask.Lsh(&mask, 256-n)
		z.Or(z, &mask)
	}
	return z
}

// SetFromBig sets z = b mod 2^256 (absolute value for negative b is taken
// as two's complement, matching big.Int truncation into EVM words).
func (z *Int) SetFromBig(b *big.Int) *Int {
	*z = Int{}
	words := b.Bits()
	for i := 0; i < len(words) && i < 4; i++ {
		z[i] = uint64(words[i])
	}
	if b.Sign() < 0 {
		z.Neg(z)
	}
	return z
}

// ToBig returns z as an unsigned math/big integer.
func (z *Int) ToBig() *big.Int {
	b := new(big.Int)
	bytes := z.Bytes32()
	return b.SetBytes(bytes[:])
}

// Hex returns z formatted as 0x-prefixed minimal hexadecimal.
func (z *Int) Hex() string {
	return fmt.Sprintf("%#x", z.ToBig())
}

// String returns z in decimal.
func (z *Int) String() string {
	return z.ToBig().String()
}

// SetHex parses a 0x-prefixed or bare hexadecimal string into z.
func (z *Int) SetHex(s string) (*Int, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	b, ok := new(big.Int).SetString(s, 16)
	if !ok {
		return nil, fmt.Errorf("uint256: invalid hex %q", s)
	}
	if b.Sign() < 0 || b.BitLen() > 256 {
		return nil, fmt.Errorf("uint256: hex value %q out of range", s)
	}
	return z.SetFromBig(b), nil
}
