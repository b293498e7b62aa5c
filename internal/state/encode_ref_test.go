package state

import (
	"bytes"
	"math/rand"
	"testing"

	"blockpilot/internal/rlp"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// encodeAccountRef is the nested encoder encodeAccount replaced (ROADMAP
// Rule 3): the account leaf as a list of already-encoded items.
func encodeAccountRef(nonce uint64, balance *uint256.Int, storageRoot, codeHash types.Hash) []byte {
	return rlp.EncodeList(
		rlp.EncodeUint(nonce),
		rlp.EncodeString(balance.Bytes()),
		rlp.EncodeString(storageRoot.Bytes()),
		rlp.EncodeString(codeHash.Bytes()),
	)
}

// TestEncodeAccountVsReference: the append-style leaf encoder writes the bytes
// of the nested one for every nonce and balance width — the leaf is 70 to 110
// bytes, always past the 55-byte short-list form — and round-trips.
func TestEncodeAccountVsReference(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for i := 0; i < 2000; i++ {
		var nonceBytes [8]byte
		r.Read(nonceBytes[:r.Intn(9)])
		nonce := uint64(0)
		for _, b := range nonceBytes {
			nonce = nonce<<8 | uint64(b)
		}
		var word [32]byte
		r.Read(word[32-r.Intn(33):])
		var balance uint256.Int
		balance.SetBytes(word[:])
		var root, codeHash types.Hash
		r.Read(root[:])
		r.Read(codeHash[:])

		got, want := encodeAccount(nonce, &balance, root, codeHash), encodeAccountRef(nonce, &balance, root, codeHash)
		if !bytes.Equal(got, want) {
			t.Fatalf("nonce %d balance %s: got %x, reference %x", nonce, balance.String(), got, want)
		}
		dec, ok := decodeAccount(got)
		if !ok || dec.nonce != nonce || !dec.balance.Eq(&balance) || dec.storageRoot != root || dec.codeHash != codeHash {
			t.Fatalf("leaf does not round-trip: %+v", dec)
		}
	}
}
