package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
)

// decodeNodeRef and nodeEdgesRef are decodeNode and NodeEdges as they were
// when every node list went through rlp.ListElems (a slice grown from nil per
// node, per embedded child and per account-shaped value) — kept, as
// keccakFRef and runRef were, as the reference the stack-split versions must
// equal on every input: same node, same error-ness, same edge list.

func decodeNodeRef(enc []byte) (node, error) {
	kind, content, rest, err := rlp.Split(enc)
	if err != nil || kind != rlp.KindList || len(rest) != 0 {
		return nil, fmt.Errorf("trie: node encoding is not an RLP list")
	}
	elems, err := rlp.ListElems(content)
	if err != nil {
		return nil, fmt.Errorf("trie: node list: %w", err)
	}
	switch len(elems) {
	case 2:
		pathContent, _, err := rlp.SplitString(elems[0])
		if err != nil {
			return nil, fmt.Errorf("trie: node path: %w", err)
		}
		path, isLeaf := decodeHexPrefix(pathContent)
		if isLeaf {
			val, _, err := rlp.SplitString(elems[1])
			if err != nil {
				return nil, fmt.Errorf("trie: leaf value: %w", err)
			}
			return &leafNode{key: path, val: val}, nil
		}
		child, err := decodeChildRefRef(elems[1])
		if err != nil {
			return nil, err
		}
		if child == nil {
			return nil, fmt.Errorf("trie: extension with empty child")
		}
		return &extNode{key: path, child: child}, nil
	case 17:
		b := &branchNode{}
		for i := 0; i < 16; i++ {
			c, err := decodeChildRefRef(elems[i])
			if err != nil {
				return nil, err
			}
			b.children[i] = c
		}
		val, _, err := rlp.SplitString(elems[16])
		if err != nil {
			return nil, fmt.Errorf("trie: branch value: %w", err)
		}
		if len(val) > 0 {
			b.value, b.hasValue = val, true
		}
		return b, nil
	}
	return nil, fmt.Errorf("trie: node with %d elements", len(elems))
}

func decodeChildRefRef(elem []byte) (node, error) {
	kind, content, _, err := rlp.Split(elem)
	if err != nil {
		return nil, fmt.Errorf("trie: child ref: %w", err)
	}
	if kind == rlp.KindString {
		switch len(content) {
		case 0:
			return nil, nil
		case 32:
			var h [32]byte
			copy(h[:], content)
			return newHashNode(h), nil
		default:
			return nil, fmt.Errorf("trie: child hash of %d bytes", len(content))
		}
	}
	return decodeNodeRef(elem)
}

func nodeEdgesRef(enc []byte, has func([32]byte) bool) [][32]byte {
	var out [][32]byte
	collectEdgesRef(enc, has, &out)
	return out
}

func collectEdgesRef(enc []byte, has func([32]byte) bool, out *[][32]byte) {
	kind, content, _, err := rlp.Split(enc)
	if err != nil || kind != rlp.KindList {
		return
	}
	elems, err := rlp.ListElems(content)
	if err != nil {
		return
	}
	switch len(elems) {
	case 2:
		pathContent, _, err := rlp.SplitString(elems[0])
		if err != nil {
			return
		}
		if _, isLeaf := decodeHexPrefix(pathContent); isLeaf {
			if val, _, err := rlp.SplitString(elems[1]); err == nil {
				accountEdgeRef(val, has, out)
			}
			return
		}
		childEdgeRef(elems[1], has, out)
	case 17:
		for i := 0; i < 16; i++ {
			childEdgeRef(elems[i], has, out)
		}
		if val, _, err := rlp.SplitString(elems[16]); err == nil && len(val) > 0 {
			accountEdgeRef(val, has, out)
		}
	}
}

func childEdgeRef(elem []byte, has func([32]byte) bool, out *[][32]byte) {
	kind, content, _, err := rlp.Split(elem)
	if err != nil {
		return
	}
	if kind == rlp.KindString {
		if len(content) == 32 {
			var h [32]byte
			copy(h[:], content)
			*out = append(*out, h)
		}
		return
	}
	collectEdgesRef(elem, has, out)
}

func accountEdgeRef(val []byte, has func([32]byte) bool, out *[][32]byte) {
	kind, content, rest, err := rlp.Split(val)
	if err != nil || kind != rlp.KindList || len(rest) != 0 {
		return
	}
	elems, err := rlp.ListElems(content)
	if err != nil || len(elems) != 4 {
		return
	}
	maxLens := [4]int{8, 32, 32, 32}
	var fields [4][]byte
	for i, e := range elems {
		s, _, err := rlp.SplitString(e)
		if err != nil || len(s) > maxLens[i] {
			return
		}
		fields[i] = s
	}
	if len(fields[2]) != 32 || len(fields[3]) != 32 {
		return
	}
	var root [32]byte
	copy(root[:], fields[2])
	if root != EmptyRoot && has(root) {
		*out = append(*out, root)
	}
}

// sameNode compares two decoded nodes structurally.
func sameNode(a, b node) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case *hashNode:
		y, ok := b.(*hashNode)
		return ok && x.hash == y.hash
	case *leafNode:
		y, ok := b.(*leafNode)
		return ok && bytes.Equal(x.key, y.key) && bytes.Equal(x.val, y.val)
	case *extNode:
		y, ok := b.(*extNode)
		return ok && bytes.Equal(x.key, y.key) && sameNode(x.child, y.child)
	case *branchNode:
		y, ok := b.(*branchNode)
		if !ok || x.hasValue != y.hasValue || !bytes.Equal(x.value, y.value) {
			return false
		}
		for i := range x.children {
			if !sameNode(x.children[i], y.children[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// fuzzEncodings turns fuzz input into node encodings worth comparing on: the
// raw bytes themselves, every node of a random trie seeded from them — short
// keys and values so children embed, 32-byte keys so they hash, account-shaped
// leaf values whose storage root is and is not in `stored` — and damaged
// copies of each: truncated, one byte flipped, and the list stretched to
// eighteen elements and beyond.
func fuzzEncodings(data []byte) (encs [][]byte, stored map[[32]byte]bool) {
	var seed int64
	for _, b := range data {
		seed = seed*131 + int64(b)
	}
	r := rand.New(rand.NewSource(seed))
	stored = map[[32]byte]bool{}
	storedRoot := crypto.Sum256([]byte("a stored storage root"))
	stored[storedRoot] = true

	tr := New()
	for n := 2 + r.Intn(40); n > 0; n-- {
		var key, val []byte
		switch r.Intn(3) {
		case 0:
			key = make([]byte, 1+r.Intn(3)) // short: shared prefixes, embedded children, branch values
		default:
			key = crypto.Keccak256([]byte{byte(r.Intn(64))})
			key[0] &= 0x1f // crowd the top of the trie so it branches
		}
		r.Read(key[len(key)-1:])
		switch r.Intn(4) {
		case 0:
			val = []byte{byte(1 + r.Intn(200))}
		case 1:
			val = make([]byte, 1+r.Intn(40))
			r.Read(val)
		default: // account-shaped
			root := storedRoot
			if r.Intn(2) == 0 {
				r.Read(root[:])
			}
			val = rlp.EncodeList(rlp.EncodeUint(uint64(r.Intn(300))), rlp.EncodeString([]byte{byte(1 + r.Intn(9)), 0}),
				rlp.EncodeString(root[:]), rlp.EncodeString(crypto.Keccak256(nil)))
		}
		tr.Update(key, val)
	}
	var collect func(n node)
	collect = func(n node) {
		if n == nil {
			return
		}
		enc := encodeNode(n)
		encs = append(encs, enc)
		if len(enc) >= 32 {
			stored[crypto.Sum256(enc)] = true
		}
		switch nd := n.(type) {
		case *extNode:
			collect(nd.child)
		case *branchNode:
			for _, c := range nd.children {
				collect(c)
			}
		}
	}
	collect(tr.root)

	for _, enc := range encs[:len(encs):len(encs)] {
		encs = append(encs, enc[:r.Intn(len(enc))])
		flipped := bytes.Clone(enc)
		flipped[r.Intn(len(flipped))] ^= byte(1 + r.Intn(255))
		encs = append(encs, flipped)
		if _, content, _, err := rlp.Split(enc); err == nil {
			if elems, _ := rlp.ListElems(content); len(elems) == 17 {
				for _, extra := range []int{1, 2} { // 18 and 19 elements
					long := append(append([][]byte{}, elems...), elems[:extra]...)
					encs = append(encs, rlp.EncodeList(long...))
				}
				encs = append(encs, rlp.EncodeList(append(append([][]byte{}, elems...), []byte{0xb8})...)) // 18th is malformed
			}
		}
	}
	return append(encs, data), stored
}

func addCodecSeeds(f *testing.F) {
	empties := func(n int) []byte { // a list of n empty strings
		return append(rlp.AppendListHeader(nil, n), bytes.Repeat([]byte{0x80}, n)...)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{0xc2, 0x20, 0x01})  // a tiny leaf
	f.Add(empties(17))               // an empty branch
	f.Add(empties(18))               // one element too many
	f.Add(append(empties(17), 0x00)) // trailing byte
	f.Add([]byte("seed a larger trie"))
}

func FuzzDecodeNodeVsReference(f *testing.F) {
	addCodecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		encs, _ := fuzzEncodings(data)
		for _, enc := range encs {
			got, err := decodeNode(enc)
			want, werr := decodeNodeRef(enc)
			if (err != nil) != (werr != nil) {
				t.Fatalf("decodeNode(%x): error %v, reference %v", enc, err, werr)
			}
			if err == nil && !sameNode(got, want) {
				t.Fatalf("decodeNode(%x) differs from the reference", enc)
			}
		}
	})
}

func FuzzNodeEdgesVsReference(f *testing.F) {
	addCodecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		encs, stored := fuzzEncodings(data)
		has := func(h [32]byte) bool { return stored[h] }
		for _, enc := range encs {
			got, want := NodeEdges(enc, has), nodeEdgesRef(enc, has)
			if len(got) != len(want) {
				t.Fatalf("NodeEdges(%x): %d edges, reference %d", enc, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("NodeEdges(%x): edge %d is %x, reference %x", enc, i, got[i], want[i])
				}
			}
		}
	})
}

// TestDecodeNodeAllocs pins what decoding costs the allocator: a full branch
// of sixteen hash references is the branch and one slab of hashNodes; its
// edges are one slice at its final size. `make state-budget` runs it in
// tier-1, so a re-grown slice shows up without the benchmark.
func TestDecodeNodeAllocs(t *testing.T) {
	elems := make([][]byte, 17)
	for i := range elems[:16] {
		elems[i] = rlp.EncodeString(crypto.Keccak256([]byte{byte(i)}))
	}
	elems[16] = []byte{0x80}
	enc := rlp.EncodeList(elems...)
	if n, err := decodeNode(enc); err != nil || !sameNode(n, mustDecodeRef(t, enc)) {
		t.Fatalf("full branch does not decode: %v", err)
	}
	if got := testing.AllocsPerRun(200, func() { decodeNode(enc) }); got != 2 {
		t.Errorf("decodeNode(full branch): %v allocations per run, pinned at 2", got)
	}
	has := func([32]byte) bool { return true }
	if got := len(NodeEdges(enc, has)); got != 16 {
		t.Fatalf("full branch has %d edges", got)
	}
	if got := testing.AllocsPerRun(200, func() { NodeEdges(enc, has) }); got != 1 {
		t.Errorf("NodeEdges(full branch): %v allocations per run, pinned at 1", got)
	}
	// An account leaf without storage — every EOA — has no edge and costs nothing.
	eoa := encodeNode(&leafNode{key: keybytesToNibbles(crypto.Keccak256([]byte("eoa")))[1:], val: rlp.EncodeList(rlp.EncodeUint(7),
		rlp.EncodeString([]byte{1, 0}), rlp.EncodeString(EmptyRoot[:]), rlp.EncodeString(crypto.Keccak256(nil)))})
	if got := NodeEdges(eoa, has); got != nil {
		t.Fatalf("EOA leaf has edges %x", got)
	}
	if got := testing.AllocsPerRun(200, func() { NodeEdges(eoa, has) }); got != 0 {
		t.Errorf("NodeEdges(EOA leaf): %v allocations per run, pinned at 0", got)
	}
}

func mustDecodeRef(t *testing.T, enc []byte) node {
	t.Helper()
	n, err := decodeNodeRef(enc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
