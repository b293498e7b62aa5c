package rlp

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// Canonical test vectors from the Ethereum wiki RLP spec.
func TestSpecVectors(t *testing.T) {
	cases := []struct {
		enc  []byte
		want string
	}{
		{EncodeString([]byte("dog")), "83646f67"},
		{EncodeList(EncodeString([]byte("cat")), EncodeString([]byte("dog"))), "c88363617483646f67"},
		{EncodeString(nil), "80"},
		{EncodeList(), "c0"},
		{EncodeUint(0), "80"},
		{EncodeString([]byte{0x00}), "00"},
		{EncodeUint(15), "0f"},
		{EncodeUint(1024), "820400"},
		// set theoretical representation of three: [ [], [[]], [ [], [[]] ] ]
		{EncodeList(EncodeList(), EncodeList(EncodeList()), EncodeList(EncodeList(), EncodeList(EncodeList()))), "c7c0c1c0c3c0c1c0"},
		{EncodeString([]byte("Lorem ipsum dolor sit amet, consectetur adipisicing elit")),
			"b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365637465747572206164697069736963696e6720656c6974"},
	}
	for i, c := range cases {
		if got := hex.EncodeToString(c.enc); got != c.want {
			t.Errorf("case %d: got %s, want %s", i, got, c.want)
		}
	}
}

func TestUintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		enc := EncodeUint(v)
		got, rest, err := SplitUint(enc)
		return err == nil && len(rest) == 0 && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		enc := EncodeString(b)
		content, rest, err := SplitString(enc)
		return err == nil && len(rest) == 0 && bytes.Equal(content, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Long strings (>55 bytes) too.
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{55, 56, 57, 255, 256, 300, 70000} {
		b := make([]byte, n)
		r.Read(b)
		content, rest, err := SplitString(EncodeString(b))
		if err != nil || len(rest) != 0 || !bytes.Equal(content, b) {
			t.Fatalf("round trip failed for %d-byte string: %v", n, err)
		}
	}
}

func TestNestedListRoundTrip(t *testing.T) {
	items := [][]byte{
		EncodeString([]byte("alpha")),
		EncodeUint(42),
		EncodeList(EncodeString([]byte("nested")), EncodeUint(7)),
		EncodeString(bytes.Repeat([]byte{0xee}, 100)),
	}
	enc := EncodeList(items...)
	content, rest, err := SplitList(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("SplitList: %v", err)
	}
	elems, err := ListElems(content)
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != len(items) {
		t.Fatalf("got %d elems, want %d", len(elems), len(items))
	}
	for i := range items {
		if !bytes.Equal(elems[i], items[i]) {
			t.Errorf("elem %d mismatch", i)
		}
	}
}

func TestStrictDecoding(t *testing.T) {
	bad := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"truncated short string", []byte{0x83, 'd', 'o'}},
		{"truncated long string header", []byte{0xb8}},
		{"truncated list", []byte{0xc8, 0x83}},
		{"wrapped single byte", []byte{0x81, 0x05}},
		{"leading zero in length", []byte{0xb9, 0x00, 0x38}},
		{"long form for short payload", append([]byte{0xb8, 0x02}, 1, 2)},
	}
	for _, c := range bad {
		if _, _, _, err := Split(c.in); err == nil {
			t.Errorf("%s: accepted invalid input % x", c.name, c.in)
		}
	}
}

func TestDecodeUintStrict(t *testing.T) {
	if _, err := DecodeUint([]byte{0x00, 0x01}); err == nil {
		t.Error("accepted leading zero uint")
	}
	if _, err := DecodeUint(bytes.Repeat([]byte{0xff}, 9)); err == nil {
		t.Error("accepted 9-byte uint")
	}
	v, err := DecodeUint(nil)
	if err != nil || v != 0 {
		t.Errorf("DecodeUint(nil) = %d, %v", v, err)
	}
}

func TestAppendReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 64)
	buf = AppendUint(buf, 7)
	buf = AppendString(buf, []byte("hi"))
	if len(buf) != 1+3 {
		t.Fatalf("unexpected length %d", len(buf))
	}
	v, rest, err := SplitUint(buf)
	if err != nil || v != 7 {
		t.Fatal("first item corrupt")
	}
	s, rest, err := SplitString(rest)
	if err != nil || string(s) != "hi" || len(rest) != 0 {
		t.Fatal("second item corrupt")
	}
}

func BenchmarkEncodeList(b *testing.B) {
	payload := bytes.Repeat([]byte{0xab}, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeList(EncodeString(payload), EncodeUint(uint64(i)))
	}
}
