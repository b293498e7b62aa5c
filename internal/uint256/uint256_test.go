package uint256

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// two256 is the modulus 2^256.
var two256 = new(big.Int).Lsh(big.NewInt(1), 256)

// mod256 reduces b into [0, 2^256).
func mod256(b *big.Int) *big.Int {
	return new(big.Int).Mod(b, two256)
}

// toSigned interprets b (in [0, 2^256)) as two's complement.
func toSigned(b *big.Int) *big.Int {
	if b.Bit(255) == 1 {
		return new(big.Int).Sub(b, two256)
	}
	return new(big.Int).Set(b)
}

// fromSigned maps a signed big back into [0, 2^256).
func fromSigned(b *big.Int) *big.Int {
	return mod256(b)
}

// randInt produces a random Int with a skewed distribution: small values,
// single-limb, dense and sparse values are all common, to hit edge cases.
func randInt(r *rand.Rand) Int {
	var z Int
	switch r.Intn(6) {
	case 0:
		z[0] = r.Uint64() % 10
	case 1:
		z[0] = r.Uint64()
	case 2:
		for i := range z {
			z[i] = r.Uint64()
		}
	case 3: // dense: all-ones patches
		for i := range z {
			z[i] = ^uint64(0)
		}
		z[r.Intn(4)] = r.Uint64()
	case 4: // sparse: one hot limb
		z[r.Intn(4)] = r.Uint64()
	case 5: // powers of two minus/plus small deltas
		var b big.Int
		b.Lsh(big.NewInt(1), uint(r.Intn(256)))
		b.Add(&b, big.NewInt(int64(r.Intn(5)-2)))
		z.SetFromBig(mod256(&b))
	}
	return z
}

// checkBinop verifies a binary Int operation against its big.Int reference
// over many random operand pairs.
func checkBinop(t *testing.T, name string, op func(z, x, y *Int) *Int, ref func(x, y *big.Int) *big.Int) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		x, y := randInt(r), randInt(r)
		var z Int
		op(&z, &x, &y)
		want := mod256(ref(x.ToBig(), y.ToBig()))
		if z.ToBig().Cmp(want) != 0 {
			t.Fatalf("%s(%s, %s) = %s, want %s", name, x.Hex(), y.Hex(), z.Hex(), want.Text(16))
		}
	}
}

func TestAdd(t *testing.T) {
	checkBinop(t, "Add", (*Int).Add, func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) })
}

func TestSub(t *testing.T) {
	checkBinop(t, "Sub", (*Int).Sub, func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) })
}

func TestMul(t *testing.T) {
	checkBinop(t, "Mul", (*Int).Mul, func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) })
	// Operands on both sides of the one-limb fast path, in every pairing and
	// with the result aliasing either of them.
	max64, max256 := ^uint64(0), Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	edges := []Int{{}, {1}, {max64}, {max64 - 1}, {0, 1}, {1, 1}, {max64, 1}, {0, 0, 0, 1}, {0, 0, 0, 1 << 63},
		{max64, max64}, {0, max64, max64, max64}, max256}
	for _, x := range edges {
		for _, y := range edges {
			want := mod256(new(big.Int).Mul(x.ToBig(), y.ToBig()))
			var z Int
			if z.Mul(&x, &y); z.ToBig().Cmp(want) != 0 {
				t.Errorf("Mul(%s, %s) = %s, want %s", x.Hex(), y.Hex(), z.Hex(), want.Text(16))
			}
			if z = x; z.Mul(&z, &y).ToBig().Cmp(want) != 0 {
				t.Errorf("x.Mul(x, y) with x %s, y %s = %s, want %s", x.Hex(), y.Hex(), z.Hex(), want.Text(16))
			}
			if z = y; z.Mul(&x, &z).ToBig().Cmp(want) != 0 {
				t.Errorf("y.Mul(x, y) with x %s, y %s = %s, want %s", x.Hex(), y.Hex(), z.Hex(), want.Text(16))
			}
		}
	}
}

func TestDiv(t *testing.T) {
	checkBinop(t, "Div", (*Int).Div, func(x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Div(x, y)
	})
}

func TestMod(t *testing.T) {
	checkBinop(t, "Mod", (*Int).Mod, func(x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Mod(x, y)
	})
}

func TestSDiv(t *testing.T) {
	checkBinop(t, "SDiv", (*Int).SDiv, func(x, y *big.Int) *big.Int {
		sx, sy := toSigned(x), toSigned(y)
		if sy.Sign() == 0 {
			return new(big.Int)
		}
		return fromSigned(new(big.Int).Quo(sx, sy))
	})
}

func TestSMod(t *testing.T) {
	checkBinop(t, "SMod", (*Int).SMod, func(x, y *big.Int) *big.Int {
		sx, sy := toSigned(x), toSigned(y)
		if sy.Sign() == 0 {
			return new(big.Int)
		}
		return fromSigned(new(big.Int).Rem(sx, sy))
	})
}

func TestExp(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 800; i++ {
		base := randInt(r)
		var exp Int
		exp[0] = r.Uint64() % 300 // keep reference big.Exp tractable
		if r.Intn(4) == 0 {
			exp = randInt(r) // also exercise huge exponents
		}
		var z Int
		z.Exp(&base, &exp)
		want := new(big.Int).Exp(base.ToBig(), exp.ToBig(), two256)
		if z.ToBig().Cmp(want) != 0 {
			t.Fatalf("Exp(%s, %s) = %s, want %s", base.Hex(), exp.Hex(), z.Hex(), want.Text(16))
		}
	}
}

func TestAddMod(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		x, y, m := randInt(r), randInt(r), randInt(r)
		var z Int
		z.AddMod(&x, &y, &m)
		want := new(big.Int)
		if m.ToBig().Sign() != 0 {
			want.Add(x.ToBig(), y.ToBig()).Mod(want, m.ToBig())
		}
		if z.ToBig().Cmp(want) != 0 {
			t.Fatalf("AddMod(%s, %s, %s) = %s, want %s", x.Hex(), y.Hex(), m.Hex(), z.Hex(), want.Text(16))
		}
	}
}

func TestMulMod(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		x, y, m := randInt(r), randInt(r), randInt(r)
		var z Int
		z.MulMod(&x, &y, &m)
		want := new(big.Int)
		if m.ToBig().Sign() != 0 {
			want.Mul(x.ToBig(), y.ToBig()).Mod(want, m.ToBig())
		}
		if z.ToBig().Cmp(want) != 0 {
			t.Fatalf("MulMod(%s, %s, %s) = %s, want %s", x.Hex(), y.Hex(), m.Hex(), z.Hex(), want.Text(16))
		}
	}
}

func TestBitwise(t *testing.T) {
	checkBinop(t, "And", (*Int).And, func(x, y *big.Int) *big.Int { return new(big.Int).And(x, y) })
	checkBinop(t, "Or", (*Int).Or, func(x, y *big.Int) *big.Int { return new(big.Int).Or(x, y) })
	checkBinop(t, "Xor", (*Int).Xor, func(x, y *big.Int) *big.Int { return new(big.Int).Xor(x, y) })
}

func TestNotNeg(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		x := randInt(r)
		var n, g Int
		n.Not(&x)
		wantNot := mod256(new(big.Int).Sub(new(big.Int).Sub(two256, big.NewInt(1)), x.ToBig()))
		if n.ToBig().Cmp(wantNot) != 0 {
			t.Fatalf("Not(%s) = %s, want %s", x.Hex(), n.Hex(), wantNot.Text(16))
		}
		g.Neg(&x)
		wantNeg := mod256(new(big.Int).Neg(x.ToBig()))
		if g.ToBig().Cmp(wantNeg) != 0 {
			t.Fatalf("Neg(%s) = %s, want %s", x.Hex(), g.Hex(), wantNeg.Text(16))
		}
	}
}

func TestShifts(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 4000; i++ {
		x := randInt(r)
		n := uint(r.Intn(300))
		var l, rr, sr Int
		l.Lsh(&x, n)
		wantL := mod256(new(big.Int).Lsh(x.ToBig(), n))
		if l.ToBig().Cmp(wantL) != 0 {
			t.Fatalf("Lsh(%s, %d) = %s, want %s", x.Hex(), n, l.Hex(), wantL.Text(16))
		}
		rr.Rsh(&x, n)
		wantR := new(big.Int).Rsh(x.ToBig(), n)
		if rr.ToBig().Cmp(wantR) != 0 {
			t.Fatalf("Rsh(%s, %d) = %s, want %s", x.Hex(), n, rr.Hex(), wantR.Text(16))
		}
		sr.SRsh(&x, n)
		sx := toSigned(x.ToBig())
		wantS := fromSigned(new(big.Int).Rsh(sx, n))
		if sr.ToBig().Cmp(wantS) != 0 {
			t.Fatalf("SRsh(%s, %d) = %s, want %s", x.Hex(), n, sr.Hex(), wantS.Text(16))
		}
	}
}

func TestSignExtend(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 4000; i++ {
		x := randInt(r)
		var b Int
		b[0] = uint64(r.Intn(40))
		var z Int
		z.SignExtend(&b, &x)

		want := new(big.Int).Set(x.ToBig())
		if b[0] < 31 {
			bitPos := int(b[0]*8 + 7)
			// Truncate to bitPos+1 bits, then sign-extend.
			mask := new(big.Int).Lsh(big.NewInt(1), uint(bitPos+1))
			mask.Sub(mask, big.NewInt(1))
			want.And(want, mask)
			if want.Bit(bitPos) == 1 {
				ext := new(big.Int).Sub(two256, big.NewInt(1))
				ext.Xor(ext, mask) // high bits above bitPos
				want.Or(want, ext)
			}
		}
		if z.ToBig().Cmp(want) != 0 {
			t.Fatalf("SignExtend(%d, %s) = %s, want %s", b[0], x.Hex(), z.Hex(), want.Text(16))
		}
	}
}

func TestByte(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		x := randInt(r)
		var n Int
		n[0] = uint64(r.Intn(40))
		var z Int
		z.Byte(&n, &x)
		var want uint64
		if n[0] < 32 {
			b := x.Bytes32()
			want = uint64(b[n[0]])
		}
		if !z.IsUint64() || z.Uint64() != want {
			t.Fatalf("Byte(%d, %s) = %s, want %d", n[0], x.Hex(), z.Hex(), want)
		}
	}
}

func TestComparisons(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 4000; i++ {
		x, y := randInt(r), randInt(r)
		if r.Intn(4) == 0 {
			y = x // force equality paths
		}
		bx, by := x.ToBig(), y.ToBig()
		if got, want := x.Lt(&y), bx.Cmp(by) < 0; got != want {
			t.Fatalf("Lt(%s, %s) = %v", x.Hex(), y.Hex(), got)
		}
		if got, want := x.Gt(&y), bx.Cmp(by) > 0; got != want {
			t.Fatalf("Gt(%s, %s) = %v", x.Hex(), y.Hex(), got)
		}
		sx, sy := toSigned(bx), toSigned(by)
		if got, want := x.Slt(&y), sx.Cmp(sy) < 0; got != want {
			t.Fatalf("Slt(%s, %s) = %v", x.Hex(), y.Hex(), got)
		}
		if got, want := x.Sgt(&y), sx.Cmp(sy) > 0; got != want {
			t.Fatalf("Sgt(%s, %s) = %v", x.Hex(), y.Hex(), got)
		}
		if got, want := x.Eq(&y), bx.Cmp(by) == 0; got != want {
			t.Fatalf("Eq(%s, %s) = %v", x.Hex(), y.Hex(), got)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(raw [32]byte) bool {
		var z Int
		z.SetBytes(raw[:])
		return z.Bytes32() == raw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimalBytes(t *testing.T) {
	var z Int
	if got := z.Bytes(); len(got) != 0 {
		t.Fatalf("zero Bytes() = %x, want empty", got)
	}
	z.SetUint64(0x1234)
	if got := z.Bytes(); len(got) != 2 || got[0] != 0x12 || got[1] != 0x34 {
		t.Fatalf("Bytes() = %x, want 1234", got)
	}
}

func TestSetBytesLong(t *testing.T) {
	buf := make([]byte, 40)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	var z Int
	z.SetBytes(buf) // must take the low (last) 32 bytes
	want := new(big.Int).SetBytes(buf[8:])
	if z.ToBig().Cmp(want) != 0 {
		t.Fatalf("SetBytes(long) = %s, want %s", z.Hex(), want.Text(16))
	}
}

func TestDivModProperty(t *testing.T) {
	// x == q*y + r with r < y for all nonzero y.
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 4000; i++ {
		x, y := randInt(r), randInt(r)
		if y.IsZero() {
			continue
		}
		var q, m Int
		q.Div(&x, &y)
		m.Mod(&x, &y)
		if !m.Lt(&y) {
			t.Fatalf("rem %s >= divisor %s", m.Hex(), y.Hex())
		}
		var back Int
		back.Mul(&q, &y)
		back.Add(&back, &m)
		if !back.Eq(&x) {
			t.Fatalf("q*y + r != x for x=%s y=%s", x.Hex(), y.Hex())
		}
	}
}

func TestBitLen(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		x := randInt(r)
		if got, want := x.BitLen(), x.ToBig().BitLen(); got != want {
			t.Fatalf("BitLen(%s) = %d, want %d", x.Hex(), got, want)
		}
	}
}

func TestSetHex(t *testing.T) {
	var z Int
	if _, err := z.SetHex("0xdeadbeef"); err != nil {
		t.Fatal(err)
	}
	if z.Uint64() != 0xdeadbeef {
		t.Fatalf("SetHex = %s", z.Hex())
	}
	if _, err := z.SetHex("xyz"); err == nil {
		t.Fatal("SetHex accepted garbage")
	}
	if _, err := z.SetHex("0x1" + string(make([]byte, 0)) + "0000000000000000000000000000000000000000000000000000000000000000"); err == nil {
		t.Fatal("SetHex accepted 260-bit value")
	}
}

func TestOverflowFlags(t *testing.T) {
	max := Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	one := Int{1}
	var z Int
	if _, over := z.AddOverflow(&max, &one); !over || !z.IsZero() {
		t.Fatalf("AddOverflow(max, 1) = %s over=%v", z.Hex(), over)
	}
	if _, under := z.SubUnderflow(&one, &max); !under {
		t.Fatal("SubUnderflow(1, max) did not report underflow")
	}
	if _, over := z.AddOverflow(&one, &one); over {
		t.Fatal("AddOverflow(1,1) reported overflow")
	}
}

func TestSetFromBigNegative(t *testing.T) {
	var z Int
	z.SetFromBig(big.NewInt(-1))
	want := Int{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	if !z.Eq(&want) {
		t.Fatalf("SetFromBig(-1) = %s", z.Hex())
	}
}

func BenchmarkMul(b *testing.B) {
	x := Int{0x1234567890abcdef, 0xfedcba0987654321, 0x1111111111111111, 0x2222222222222222}
	y := Int{0xaaaaaaaaaaaaaaaa, 0xbbbbbbbbbbbbbbbb, 0xcccccccccccccccc, 0x1}
	var z Int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
}

func BenchmarkDiv(b *testing.B) {
	x := Int{0x1234567890abcdef, 0xfedcba0987654321, 0x1111111111111111, 0x2222222222222222}
	y := Int{0xaaaaaaaaaaaaaaaa, 0xbbbbbbbbbbbbbbbb, 0x3}
	var z Int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Div(&x, &y)
	}
}
