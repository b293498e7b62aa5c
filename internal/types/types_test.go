package types

import (
	"bytes"
	"encoding/json"
	"testing"

	"blockpilot/internal/uint256"
)

func sampleTx(i byte) *Transaction {
	tx := &Transaction{
		Nonce: uint64(i),
		Gas:   21000 + uint64(i),
		To:    BytesToAddress([]byte{i, 2, 3}),
		Data:  []byte{0xde, 0xad, i},
		From:  BytesToAddress([]byte{9, 9, i}),
	}
	tx.GasPrice.SetUint64(uint64(i) * 7)
	tx.Value.SetUint64(uint64(i) * 1000)
	return tx
}

func TestTransactionRoundTrip(t *testing.T) {
	for i := byte(0); i < 20; i++ {
		tx := sampleTx(i)
		dec, err := DecodeTransaction(tx.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if dec.Nonce != tx.Nonce || dec.Gas != tx.Gas || dec.To != tx.To ||
			dec.From != tx.From || !dec.GasPrice.Eq(&tx.GasPrice) ||
			!dec.Value.Eq(&tx.Value) || !bytes.Equal(dec.Data, tx.Data) {
			t.Fatalf("round trip mismatch for tx %d", i)
		}
		if dec.Hash() != tx.Hash() {
			t.Fatalf("hash mismatch for tx %d", i)
		}
	}
}

func TestTransactionHashStable(t *testing.T) {
	a, b := sampleTx(1), sampleTx(1)
	if a.Hash() != b.Hash() {
		t.Fatal("identical txs hash differently")
	}
	c := sampleTx(2)
	if a.Hash() == c.Hash() {
		t.Fatal("different txs share a hash")
	}
}

func TestTransactionCost(t *testing.T) {
	tx := &Transaction{Gas: 100}
	tx.GasPrice.SetUint64(3)
	tx.Value.SetUint64(50)
	cost := tx.Cost()
	if !cost.Eq(uint256.NewInt(350)) {
		t.Fatalf("Cost = %s, want 350", cost.String())
	}
}

func TestHeaderHashDistinguishesFields(t *testing.T) {
	h := Header{Number: 5, GasLimit: 1000}
	h2 := h
	h2.Number = 6
	if h.Hash() == h2.Hash() {
		t.Fatal("headers with different numbers share a hash")
	}
	h3 := h
	h3.StateRoot[0] = 1
	if h.Hash() == h3.Hash() {
		t.Fatal("headers with different roots share a hash")
	}
	h4 := h
	h4.ProfileRoot[31] = 1
	if h.Hash() == h4.Hash() {
		t.Fatal("headers with different profile roots share a hash")
	}
}

func TestAddressHelpers(t *testing.T) {
	a := HexToAddress("0x00000000000000000000000000000000000000ff")
	if a[19] != 0xff {
		t.Fatalf("HexToAddress parsed %v", a)
	}
	if a.IsZero() {
		t.Fatal("nonzero address reported zero")
	}
	w := a.Word()
	if w.Uint64() != 0xff {
		t.Fatalf("Word = %s", w.String())
	}
	if BytesToAddress(a.Hash().Bytes()) != a {
		t.Fatal("Hash/BytesToAddress round trip failed")
	}
}

func TestCreateAddressDeterministic(t *testing.T) {
	from := BytesToAddress([]byte{1})
	a0 := CreateAddress(from, 0)
	a1 := CreateAddress(from, 1)
	if a0 == a1 {
		t.Fatal("different nonces gave same contract address")
	}
	if a0 != CreateAddress(from, 0) {
		t.Fatal("CreateAddress not deterministic")
	}
}

func TestComputeTxRoot(t *testing.T) {
	txs := []*Transaction{sampleTx(1), sampleTx(2), sampleTx(3)}
	root := ComputeTxRoot(txs)
	if root == (Hash{}) {
		t.Fatal("zero tx root")
	}
	// Order matters.
	rev := []*Transaction{txs[2], txs[1], txs[0]}
	if ComputeTxRoot(rev) == root {
		t.Fatal("tx root ignores order")
	}
	if ComputeTxRoot(nil) != Hash(trieEmptyRoot()) {
		t.Fatal("empty tx root is not the empty trie root")
	}
}

func trieEmptyRoot() [32]byte {
	// keccak256(rlp("")) — duplicated here to avoid exporting it just for a test.
	return [32]byte{0x56, 0xe8, 0x1f, 0x17, 0x1b, 0xcc, 0x55, 0xa6, 0xff, 0x83, 0x45, 0xe6,
		0x92, 0xc0, 0xf8, 0x6e, 0x5b, 0x48, 0xe0, 0x1b, 0x99, 0x6c, 0xad, 0xc0,
		0x01, 0x62, 0x2f, 0xb5, 0xe3, 0x63, 0xb4, 0x21}
}

func TestReceiptRoot(t *testing.T) {
	r1 := &Receipt{Status: 1, GasUsed: 21000, CumulativeGasUsed: 21000}
	r2 := &Receipt{Status: 0, GasUsed: 40000, CumulativeGasUsed: 61000,
		Logs: []*Log{{Address: BytesToAddress([]byte{5}), Topics: []Hash{{1}}, Data: []byte{2}}}}
	root := ComputeReceiptRoot([]*Receipt{r1, r2})
	if root == (Hash{}) {
		t.Fatal("zero receipt root")
	}
	r2b := *r2
	r2b.Status = 1
	if ComputeReceiptRoot([]*Receipt{r1, &r2b}) == root {
		t.Fatal("receipt root ignores status")
	}
}

// TestHashJSONText: a hash encodes as its String form and decodes back; a
// malformed one is refused.
func TestHashJSONText(t *testing.T) {
	h := Hash{0: 0xab, 31: 0x01}
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"` + h.String() + `"`; string(raw) != want {
		t.Fatalf("json = %s, want %s", raw, want)
	}
	var back Hash
	if err := json.Unmarshal(raw, &back); err != nil || back != h {
		t.Fatalf("round trip = %v (err %v), want %v", back, err, h)
	}
	for _, bad := range []string{`"0xab"`, `"` + h.String()[2:] + `"`, `"0x` + string(bytes.Repeat([]byte("zz"), 32)) + `"`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Fatalf("decoding %s: want an error", bad)
		}
	}
}
