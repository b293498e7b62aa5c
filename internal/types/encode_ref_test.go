package types

import (
	"bytes"
	"encoding/binary"
	"testing"

	"blockpilot/internal/rlp"
	"blockpilot/internal/trie"
)

// The nested encoders the append-style AppendTo methods replaced: every list
// is rlp.EncodeList over already-encoded items. They are the byte-for-byte
// references FuzzEncodeVsReference holds the wire format to (ROADMAP Rule 3).

func encodeTxRef(tx *Transaction) []byte {
	to := tx.To.Bytes()
	if tx.CreateContract {
		to = nil
	}
	return rlp.EncodeList(
		rlp.EncodeUint(tx.Nonce),
		rlp.EncodeString(tx.GasPrice.Bytes()),
		rlp.EncodeUint(tx.Gas),
		rlp.EncodeString(to),
		rlp.EncodeString(tx.Value.Bytes()),
		rlp.EncodeString(tx.Data),
		rlp.EncodeString(tx.From.Bytes()),
	)
}

func encodeHeaderRef(h *Header) []byte {
	return rlp.EncodeList(
		rlp.EncodeString(h.ParentHash.Bytes()),
		rlp.EncodeUint(h.Number),
		rlp.EncodeString(h.Coinbase.Bytes()),
		rlp.EncodeString(h.StateRoot.Bytes()),
		rlp.EncodeString(h.TxRoot.Bytes()),
		rlp.EncodeString(h.ProfileRoot.Bytes()),
		rlp.EncodeString(h.ReceiptRoot.Bytes()),
		rlp.EncodeString(h.LogsBloom[:]),
		rlp.EncodeUint(h.GasLimit),
		rlp.EncodeUint(h.GasUsed),
		rlp.EncodeUint(h.Time),
		rlp.EncodeString(h.Extra),
	)
}

func encodeReceiptRef(r *Receipt) []byte {
	logItems := make([][]byte, len(r.Logs))
	for i, l := range r.Logs {
		topicItems := make([][]byte, len(l.Topics))
		for j, tp := range l.Topics {
			topicItems[j] = rlp.EncodeString(tp.Bytes())
		}
		logItems[i] = rlp.EncodeList(
			rlp.EncodeString(l.Address.Bytes()),
			rlp.EncodeList(topicItems...),
			rlp.EncodeString(l.Data),
		)
	}
	return rlp.EncodeList(
		rlp.EncodeString(r.TxHash.Bytes()),
		rlp.EncodeUint(r.Status),
		rlp.EncodeUint(r.GasUsed),
		rlp.EncodeUint(r.CumulativeGasUsed),
		rlp.EncodeList(logItems...),
	)
}

func encodeProfileRef(bp *BlockProfile) []byte {
	txItems := make([][]byte, len(bp.Txs))
	for i, tp := range bp.Txs {
		reads := make([][]byte, len(tp.Reads))
		for j, kv := range tp.Reads {
			reads[j] = rlp.EncodeList(
				rlp.EncodeUint(uint64(kv.Key.Kind)),
				rlp.EncodeString(kv.Key.Addr.Bytes()),
				rlp.EncodeString(kv.Key.Slot.Bytes()),
				rlp.EncodeUint(kv.Version),
			)
		}
		writes := make([][]byte, len(tp.Writes))
		for j, k := range tp.Writes {
			writes[j] = rlp.EncodeList(
				rlp.EncodeUint(uint64(k.Kind)),
				rlp.EncodeString(k.Addr.Bytes()),
				rlp.EncodeString(k.Slot.Bytes()),
			)
		}
		txItems[i] = rlp.EncodeList(
			rlp.EncodeList(reads...),
			rlp.EncodeList(writes...),
			rlp.EncodeUint(tp.GasUsed),
		)
	}
	return rlp.EncodeList(txItems...)
}

func encodeBlockRef(b *Block) []byte {
	txItems := make([][]byte, len(b.Txs))
	for i, tx := range b.Txs {
		txItems[i] = encodeTxRef(tx)
	}
	profile := b.Profile
	if profile == nil {
		profile = &BlockProfile{}
	}
	return rlp.EncodeList(
		encodeHeaderRef(&b.Header),
		rlp.EncodeList(txItems...),
		encodeProfileRef(profile),
	)
}

// refSizes are the payload lengths at which an RLP header changes width, and
// their neighbours: 55/56 (short → long form, the shift path of rlp.EndList),
// 255/256 and 65 535/65 536 (one more length byte each).
var refSizes = []int{0, 1, 55, 56, 255, 256, 65535, 65536}

// fuzzSource deals out the fuzzer's bytes, zeros once they run out.
type fuzzSource struct{ data []byte }

func (s *fuzzSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *fuzzSource) fill(b []byte) {
	for i := range b {
		b[i] = s.byte()
	}
}

func (s *fuzzSource) uint64() uint64 {
	var b [8]byte
	s.fill(b[:s.byte()%9]) // 0..8 significant bytes: every uint width
	return binary.LittleEndian.Uint64(b[:])
}

// payload is a byte string of one of refSizes, or a short arbitrary length.
func (s *fuzzSource) payload() []byte {
	n := int(s.byte())
	if n < 2*len(refSizes) {
		n = refSizes[n%len(refSizes)]
	}
	b := make([]byte, n)
	s.fill(b[:min(n, 64)])
	return b
}

func (s *fuzzSource) tx() *Transaction {
	tx := &Transaction{Nonce: s.uint64(), Gas: s.uint64(), CreateContract: s.byte()%4 == 0}
	var word [32]byte
	s.fill(word[32-s.byte()%33:]) // zero through full-width uint256
	tx.GasPrice.SetBytes(word[:])
	s.fill(word[32-s.byte()%33:])
	tx.Value.SetBytes(word[:])
	s.fill(tx.To[:])
	s.fill(tx.From[:])
	if s.byte()%3 != 0 { // else: empty Data
		tx.Data = s.payload()
	}
	return tx
}

func (s *fuzzSource) receipt() *Receipt {
	r := &Receipt{Status: uint64(s.byte() % 2), GasUsed: s.uint64(), CumulativeGasUsed: s.uint64()}
	s.fill(r.TxHash[:])
	for n := int(s.byte() % 4); n > 0; n-- {
		l := &Log{Data: s.payload()}
		s.fill(l.Address[:])
		l.Topics = make([]Hash, s.byte()%5) // 0–4 topics
		for i := range l.Topics {
			s.fill(l.Topics[i][:])
		}
		r.Logs = append(r.Logs, l)
	}
	return r
}

func (s *fuzzSource) key() StateKey {
	k := StateKey{Kind: KeyKind(s.byte() % 2)}
	s.fill(k.Addr[:])
	if k.Kind == KeyStorage {
		s.fill(k.Slot[:])
	}
	return k
}

func (s *fuzzSource) profile() *BlockProfile {
	bp := &BlockProfile{}
	for n := int(s.byte() % 4); n > 0; n-- {
		tp := &TxProfile{GasUsed: s.uint64()}
		for r := int(s.byte() % 5); r > 0; r-- {
			tp.Reads = append(tp.Reads, KeyVersion{Key: s.key(), Version: s.uint64()})
		}
		for w := int(s.byte() % 5); w > 0; w-- {
			tp.Writes = append(tp.Writes, s.key())
		}
		bp.Txs = append(bp.Txs, tp)
	}
	return bp
}

func (s *fuzzSource) header() Header {
	h := Header{Number: s.uint64(), GasLimit: s.uint64(), GasUsed: s.uint64(), Time: s.uint64()}
	s.fill(h.ParentHash[:])
	s.fill(h.Coinbase[:])
	s.fill(h.StateRoot[:])
	s.fill(h.TxRoot[:])
	s.fill(h.ProfileRoot[:])
	s.fill(h.ReceiptRoot[:])
	s.fill(h.LogsBloom[:8])
	if s.byte()%2 == 0 {
		h.Extra = s.payload()
	}
	return h
}

// checkAppend holds a's encoding equal to ref — through Encode and through
// AppendTo into an empty, a non-empty, an exactly full and an over-capacity
// dst, none of which may touch the bytes already there.
func checkAppend(t *testing.T, what string, a appender, ref []byte) {
	t.Helper()
	if got := encode(a); !bytes.Equal(got, ref) {
		t.Fatalf("%s: Encode differs from the reference: %d vs %d bytes", what, len(got), len(ref))
	}
	prefix := []byte("prefix-that-must-survive")
	for _, dst := range [][]byte{
		nil,
		append(make([]byte, 0, len(prefix)), prefix...),               // exactly full
		append(make([]byte, 0, len(prefix)+len(ref)/2), prefix...),    // grows part-way
		append(make([]byte, 0, len(prefix)+2*len(ref)+16), prefix...), // over capacity
	} {
		had := len(dst)
		out := a.AppendTo(dst)
		if !bytes.Equal(out[:had], prefix[:had]) {
			t.Fatalf("%s: AppendTo changed the %d bytes before it", what, had)
		}
		if !bytes.Equal(out[had:], ref) {
			t.Fatalf("%s: AppendTo (len %d, cap %d) differs from the reference", what, had, cap(dst))
		}
	}
}

// FuzzEncodeVsReference: the append-style encoders of the five wire types
// produce exactly the bytes of the nested reference encoders, for arbitrary
// field values — every list-header width and EndList's shift path included —
// and whatever dst they append to.
func FuzzEncodeVsReference(f *testing.F) {
	f.Add([]byte{})
	for i := 0; i < 2*len(refSizes); i++ {
		// Seeds that steer every payload() call to the i-th boundary size.
		f.Add(bytes.Repeat([]byte{byte(i)}, 96))
	}
	f.Add([]byte{0xff, 0, 0xaa, 9, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 8, 7, 6, 5, 4, 3, 2, 1, 0, 200, 100, 50})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSource{data: data}
		blk := &Block{Header: s.header()}
		for n := int(s.byte() % 4); n > 0; n-- {
			blk.Txs = append(blk.Txs, s.tx())
		}
		if s.byte()%4 != 0 { // else: no profile, the empty-list section
			blk.Profile = s.profile()
		}
		for i, tx := range blk.Txs {
			checkAppend(t, "tx", tx, encodeTxRef(tx))
			if i == 0 && tx.Hash() != hashOfBytes(encodeTxRef(tx)) {
				t.Fatal("tx hash differs from the reference encoding's")
			}
		}
		checkAppend(t, "header", &blk.Header, encodeHeaderRef(&blk.Header))
		if blk.Hash() != hashOfBytes(encodeHeaderRef(&blk.Header)) {
			t.Fatal("header hash differs from the reference encoding's")
		}
		if blk.Profile != nil {
			checkAppend(t, "profile", blk.Profile, encodeProfileRef(blk.Profile))
		}
		checkAppend(t, "block", blk, encodeBlockRef(blk))
		r := s.receipt()
		checkAppend(t, "receipt", r, encodeReceiptRef(r))
	})
}

// hashOfBytes is hashOf for an encoding already in hand.
func hashOfBytes(enc []byte) Hash { return hashOf(rawBytes(enc)) }

type rawBytes []byte

func (b rawBytes) AppendTo(dst []byte) []byte { return append(dst, b...) }

// TestRootsMatchUpdateLoop holds the one-pass ComputeTxRoot and
// ComputeReceiptRoot equal to the Update loop over a trie they replaced, at
// the sizes where the rlp(index) key changes length (128) and around them.
func TestRootsMatchUpdateLoop(t *testing.T) {
	s := &fuzzSource{}
	for _, n := range []int{0, 1, 2, 127, 128, 129, 1000} {
		txs := make([]*Transaction, n)
		receipts := make([]*Receipt, n)
		txTrie, receiptTrie := trie.New(), trie.New()
		for i := range txs {
			// Deterministic, varied content: the index seeds the source.
			s.data = bytes.Repeat([]byte{byte(i), byte(i >> 8), byte(i * 7)}, 40)
			txs[i], receipts[i] = s.tx(), s.receipt()
			txTrie.Update(rlp.EncodeUint(uint64(i)), encodeTxRef(txs[i]))
			receiptTrie.Update(rlp.EncodeUint(uint64(i)), encodeReceiptRef(receipts[i]))
		}
		if got, want := ComputeTxRoot(txs), Hash(txTrie.Hash()); got != want {
			t.Errorf("%d txs: ComputeTxRoot %s, Update loop %s", n, got, want)
		}
		if got, want := ComputeReceiptRoot(receipts), Hash(receiptTrie.Hash()); got != want {
			t.Errorf("%d receipts: ComputeReceiptRoot %s, Update loop %s", n, got, want)
		}
	}
}

// TestMatchesAccessSetEqualsSortedProfile: the validator lane's allocation-
// free check gives the verdict of the comparison it replaced — build the
// sorted profile, then SameAccessKeys — on honest profiles and on shipped
// ones with a swapped pair, a duplicate, a missing or a foreign key.
func TestMatchesAccessSetEqualsSortedProfile(t *testing.T) {
	s := &fuzzSource{}
	for seed := 0; seed < 200; seed++ {
		s.data = bytes.Repeat([]byte{byte(seed), byte(seed * 13), byte(seed >> 3), 1}, 64)
		a := NewAccessSet()
		for n := int(s.byte() % 6); n > 0; n-- {
			a.NoteRead(s.key(), s.uint64())
		}
		for n := int(s.byte() % 6); n > 0; n-- {
			a.NoteWrite(s.key())
		}
		honest := ProfileFromAccessSet(a, 1)
		shipped := []*TxProfile{honest}
		clone := func() *TxProfile {
			return &TxProfile{Reads: append([]KeyVersion(nil), honest.Reads...), Writes: append([]StateKey(nil), honest.Writes...)}
		}
		if len(honest.Reads) >= 2 {
			p := clone()
			p.Reads[0], p.Reads[1] = p.Reads[1], p.Reads[0] // unsorted
			q := clone()
			q.Reads[1] = q.Reads[0] // duplicate, same length
			shipped = append(shipped, p, q)
		}
		if len(honest.Writes) >= 1 {
			p := clone()
			p.Writes = p.Writes[1:] // missing
			q := clone()
			q.Writes[0] = s.key() // foreign
			r := clone()
			r.Writes = append(r.Writes, r.Writes[len(r.Writes)-1]) // duplicate, longer
			shipped = append(shipped, p, q, r)
		}
		for i, p := range shipped {
			if got, want := p.MatchesAccessSet(a), honest.SameAccessKeys(p); got != want {
				t.Fatalf("seed %d profile %d: MatchesAccessSet %v, SameAccessKeys %v", seed, i, got, want)
			}
		}
	}
}

var (
	benchSink []byte
	benchHash Hash
)

// sampleLargeBlock is a block of the benchmark's shape: 132 transactions with
// a short calldata each and a profile of a handful of keys per transaction.
func sampleLargeBlock() *Block {
	s := &fuzzSource{}
	blk := &Block{Header: sampleBlock(false).Header, Profile: &BlockProfile{}}
	for i := 0; i < 132; i++ {
		s.data = bytes.Repeat([]byte{byte(i + 1), byte(i * 3), 0x55, 9}, 64)
		tx := s.tx()
		tx.Data = make([]byte, 68)
		blk.Txs = append(blk.Txs, tx)
		tp := &TxProfile{GasUsed: 60000}
		for r := 0; r < 6; r++ {
			tp.Reads = append(tp.Reads, KeyVersion{Key: s.key(), Version: uint64(i)})
		}
		for w := 0; w < 4; w++ {
			tp.Writes = append(tp.Writes, s.key())
		}
		blk.Profile.Txs = append(blk.Profile.Txs, tp)
	}
	return blk
}

func BenchmarkBlockEncode(b *testing.B) {
	blk := sampleLargeBlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = blk.Encode()
	}
}

func BenchmarkComputeTxRoot(b *testing.B) {
	blk := sampleLargeBlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHash = ComputeTxRoot(blk.Txs)
	}
}
