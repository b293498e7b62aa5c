package crypto

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"testing"
)

// rotationOffsets holds the rho-step rotation for lane (x, y) at index x+5y.
var rotationOffsets = [25]int{
	0, 1, 62, 28, 27,
	36, 44, 6, 55, 20,
	3, 10, 43, 25, 39,
	41, 45, 15, 21, 8,
	18, 2, 61, 56, 14,
}

// keccakFRef is the textbook keccak-f[1600]: one loop per step, straight
// from the specification. The unrolled keccakF is checked against it.
func keccakFRef(a *[25]uint64) {
	for round := 0; round < 24; round++ {
		// theta
		var c [5]uint64
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d := c[(x+4)%5] ^ bits.RotateLeft64(c[(x+1)%5], 1)
			for y := 0; y < 25; y += 5 {
				a[x+y] ^= d
			}
		}
		// rho and pi
		var b [25]uint64
		for x := 0; x < 5; x++ {
			for y := 0; y < 5; y++ {
				b[y+5*((2*x+3*y)%5)] = bits.RotateLeft64(a[x+5*y], rotationOffsets[x+5*y])
			}
		}
		// chi
		for y := 0; y < 25; y += 5 {
			for x := 0; x < 5; x++ {
				a[x+y] = b[x+y] ^ (^b[(x+1)%5+y] & b[(x+2)%5+y])
			}
		}
		// iota
		a[0] ^= roundConstants[round]
	}
}

// keccak256Ref hashes data with a sponge built only on keccakFRef: the whole
// padded message is materialised, then absorbed block by block.
func keccak256Ref(data []byte) (out [32]byte) {
	padded := append(append([]byte(nil), data...), 0x01)
	for len(padded)%rate != 0 {
		padded = append(padded, 0)
	}
	padded[len(padded)-1] |= 0x80
	var st [25]uint64
	for ; len(padded) > 0; padded = padded[rate:] {
		for i := 0; i < rate/8; i++ {
			st[i] ^= binary.LittleEndian.Uint64(padded[i*8:])
		}
		keccakFRef(&st)
	}
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], st[i])
	}
	return out
}

func TestKeccakFMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var got, want [25]uint64 // the all-zero state is iteration 0
	for i := 0; i < 10000; i++ {
		keccakF(&got)
		keccakFRef(&want)
		if got != want {
			t.Fatalf("iteration %d: keccakF diverges from the reference", i)
		}
		// Chain mostly, re-seed every 16th state so a bug cannot hide in
		// the orbit of one starting point.
		if i%16 == 0 {
			for j := range got {
				got[j] = r.Uint64()
			}
			want = got
		}
	}
}

// FuzzKeccak256VsReference checks every way of hashing the same bytes —
// one-shot, into a caller's array, and a streaming hasher fed in two writes
// split anywhere —
// against the reference sponge.
func FuzzKeccak256VsReference(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, rate - 1, rate, rate + 1, 2*rate - 1, 2 * rate, 2*rate + 1, 1024} {
		data := make([]byte, n)
		r.Read(data)
		f.Add(data, uint16(n/2))
		f.Add(data, uint16(rate))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		want := keccak256Ref(data)
		if got := Sum256(data); got != want {
			t.Fatalf("Sum256 of %d bytes diverges from the reference", len(data))
		}
		if got := Keccak256(data); !bytes.Equal(got, want[:]) {
			t.Fatalf("Keccak256 of %d bytes diverges from the reference", len(data))
		}
		cut := int(split) % (len(data) + 1)
		var got [32]byte
		Keccak256Into(&got, data[:cut], data[cut:])
		if got != want {
			t.Fatalf("Keccak256Into split at %d of %d diverges from the reference", cut, len(data))
		}
		k := NewKeccak()
		k.Write(data[:cut])
		k.SumInto(&got) // a mid-stream digest must not disturb the sponge
		k.Write(data[cut:])
		k.SumInto(&got)
		if got != want {
			t.Fatalf("streaming split at %d of %d diverges from the reference", cut, len(data))
		}
	})
}

// Known-answer vectors for legacy Keccak-256.
var katVectors = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"The quick brown fox jumps over the lazy dog",
		"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	{"The quick brown fox jumps over the lazy dog.",
		"578951e24efd62a3d63a86f7cd19aaa53c898fe287d2552133220370240b572d"},
}

func TestKnownAnswers(t *testing.T) {
	for _, v := range katVectors {
		got := hex.EncodeToString(Keccak256([]byte(v.in)))
		if got != v.want {
			t.Errorf("Keccak256(%q) = %s, want %s", v.in, got, v.want)
		}
	}
}

func TestStreamingMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for size := 0; size < 600; size += 7 {
		data := make([]byte, size)
		r.Read(data)
		want := Keccak256(data)

		k := NewKeccak()
		// Write in random-sized chunks.
		rest := data
		for len(rest) > 0 {
			n := r.Intn(len(rest)) + 1
			k.Write(rest[:n])
			rest = rest[n:]
		}
		if got := k.Sum(nil); !bytes.Equal(got, want) {
			t.Fatalf("streaming mismatch at size %d", size)
		}
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	k := NewKeccak()
	k.Write([]byte("hello "))
	_ = k.Sum(nil) // mid-stream digest
	k.Write([]byte("world"))
	got := k.Sum(nil)
	want := Keccak256([]byte("hello world"))
	if !bytes.Equal(got, want) {
		t.Fatal("Sum disturbed absorbing state")
	}
}

func TestMultiInputConcat(t *testing.T) {
	a, b := []byte("foo"), []byte("bar")
	if !bytes.Equal(Keccak256(a, b), Keccak256([]byte("foobar"))) {
		t.Fatal("multi-input Keccak256 is not concatenation")
	}
}

func TestRateBoundary(t *testing.T) {
	// Exactly rate-1, rate, rate+1 bytes exercise the padding edge cases.
	for _, n := range []int{rate - 1, rate, rate + 1, 2 * rate} {
		data := bytes.Repeat([]byte{0xa5}, n)
		d1 := Keccak256(data)
		k := NewKeccak()
		for _, c := range data {
			k.Write([]byte{c})
		}
		if !bytes.Equal(k.Sum(nil), d1) {
			t.Fatalf("rate boundary mismatch at %d bytes", n)
		}
	}
}

func TestReset(t *testing.T) {
	k := NewKeccak()
	k.Write([]byte("junk"))
	k.Reset()
	k.Write([]byte("abc"))
	want, _ := hex.DecodeString(katVectors[1].want)
	if !bytes.Equal(k.Sum(nil), want) {
		t.Fatal("Reset did not clear state")
	}
}

func TestKeccak256IntoMatchesKeccak256(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for size := 0; size < 600; size += 13 {
		data := make([]byte, size)
		r.Read(data)
		var got [32]byte
		Keccak256Into(&got, data)
		if !bytes.Equal(got[:], Keccak256(data)) {
			t.Fatalf("Keccak256Into mismatch at size %d", size)
		}
	}
	// Multi-input concatenation parity.
	var got [32]byte
	Keccak256Into(&got, []byte("foo"), []byte("bar"))
	if !bytes.Equal(got[:], Keccak256([]byte("foobar"))) {
		t.Fatal("Keccak256Into multi-input is not concatenation")
	}
}

func TestSumIntoDoesNotDisturbState(t *testing.T) {
	k := NewKeccak()
	k.Write([]byte("hello "))
	var mid [32]byte
	k.SumInto(&mid) // mid-stream digest
	k.Write([]byte("world"))
	var got [32]byte
	k.SumInto(&got)
	if !bytes.Equal(got[:], Keccak256([]byte("hello world"))) {
		t.Fatal("SumInto disturbed absorbing state")
	}
}

// TestKeccak256IntoZeroAlloc is the satellite's CI gate: the 32-byte hot
// path (hashed address/slot keys) must not allocate at all.
func TestKeccak256IntoZeroAlloc(t *testing.T) {
	data := make([]byte, 32)
	var out [32]byte
	if allocs := testing.AllocsPerRun(200, func() {
		Keccak256Into(&out, data)
	}); allocs != 0 {
		t.Fatalf("Keccak256Into(32B) allocates %.1f/op, want 0", allocs)
	}
	// Sum256 on one block and on a multi-block input (whole blocks bypass
	// the staging buffer; the tail is padded in place).
	for _, data := range [][]byte{data, make([]byte, 1024)} {
		if allocs := testing.AllocsPerRun(200, func() {
			_ = Sum256(data)
		}); allocs != 0 {
			t.Fatalf("Sum256(%dB) allocates %.1f/op, want 0", len(data), allocs)
		}
	}
}

func BenchmarkKeccak256Into_32(b *testing.B) {
	data := make([]byte, 32)
	var out [32]byte
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Keccak256Into(&out, data)
	}
}

func BenchmarkKeccak256_32(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkKeccak256_1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
