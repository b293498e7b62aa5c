// Package types defines the core blockchain data model: addresses, hashes,
// transactions, headers, blocks, receipts, and the access-set / block-profile
// structures that BlockPilot's proposer attaches to blocks so validators can
// schedule and verify parallel execution.
package types

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sync"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
	"blockpilot/internal/trie"
	"blockpilot/internal/uint256"
)

// AddressLength is the byte length of an account address.
const AddressLength = 20

// HashLength is the byte length of a Keccak-256 hash.
const HashLength = 32

// Address is a 20-byte account identifier.
type Address [AddressLength]byte

// Hash is a 32-byte Keccak-256 digest.
type Hash [HashLength]byte

// BytesToAddress returns an Address from the low 20 bytes of b.
func BytesToAddress(b []byte) Address {
	var a Address
	if len(b) > AddressLength {
		b = b[len(b)-AddressLength:]
	}
	copy(a[AddressLength-len(b):], b)
	return a
}

// HexToAddress parses a 0x-prefixed or bare hex address. Odd-length input
// is left-padded with a zero nibble.
func HexToAddress(s string) Address {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	b, _ := hex.DecodeString(s)
	return BytesToAddress(b)
}

// Bytes returns the address as a slice.
func (a Address) Bytes() []byte { return a[:] }

// Hash returns the address left-padded to 32 bytes (EVM word form).
func (a Address) Hash() Hash {
	var h Hash
	copy(h[HashLength-AddressLength:], a[:])
	return h
}

// Word returns the address as a 256-bit integer.
func (a Address) Word() uint256.Int {
	var w uint256.Int
	w.SetBytes(a[:])
	return w
}

func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == Address{} }

// BytesToHash returns a Hash from the low 32 bytes of b.
func BytesToHash(b []byte) Hash {
	var h Hash
	if len(b) > HashLength {
		b = b[len(b)-HashLength:]
	}
	copy(h[HashLength-len(b):], b)
	return h
}

// Bytes returns the hash as a slice.
func (h Hash) Bytes() []byte { return h[:] }

func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:]) }

// MarshalText encodes the hash in its String form, so JSON carries "0x…".
func (h Hash) MarshalText() ([]byte, error) { return []byte(h.String()), nil }

// UnmarshalText parses the form MarshalText writes: 0x and 64 hex digits.
func (h *Hash) UnmarshalText(text []byte) error {
	if len(text) != 2+2*HashLength || !bytes.HasPrefix(text, []byte("0x")) {
		return fmt.Errorf("types: hash %q is not 0x and 64 hex digits", text)
	}
	_, err := hex.Decode(h[:], text[2:])
	return err
}

// Word returns the hash as a 256-bit integer.
func (h Hash) Word() uint256.Int {
	var w uint256.Int
	w.SetBytes(h[:])
	return w
}

// WordToHash converts a 256-bit integer to its 32-byte big-endian hash form.
func WordToHash(w *uint256.Int) Hash { return Hash(w.Bytes32()) }

// Transaction is an account-model transaction. Sender authentication is
// carried in the From field rather than an ECDSA signature (see DESIGN.md:
// signature recovery is orthogonal to the execution framework under test).
// A transaction with CreateContract set deploys Data as init code; the
// contract address is CreateAddress(From, Nonce), per Ethereum.
type Transaction struct {
	Nonce    uint64
	GasPrice uint256.Int
	Gas      uint64 // gas limit
	To       Address
	Value    uint256.Int
	Data     []byte
	From     Address
	// CreateContract marks a deployment (Ethereum encodes this as an empty
	// To field; so does our canonical encoding).
	CreateContract bool

	hash *Hash // cached
}

// appender is a wire type: AppendTo appends its canonical RLP encoding to a
// buffer the caller owns, without intermediate slices (DESIGN.md, "Encoding
// appends in place").
type appender interface{ AppendTo(dst []byte) []byte }

// encScratch recycles the buffers wire types are encoded into when only a
// hash or a right-sized copy of the encoding outlives the call.
var encScratch = sync.Pool{New: func() any {
	buf := make([]byte, 0, 1024)
	return &buf
}}

// encode returns a's encoding in a slice of its own, exactly as long.
func encode(a appender) []byte {
	buf := encScratch.Get().(*[]byte)
	*buf = a.AppendTo((*buf)[:0])
	enc := bytes.Clone(*buf)
	encScratch.Put(buf)
	return enc
}

// hashOf returns keccak256 of a's encoding.
func hashOf(a appender) Hash {
	buf := encScratch.Get().(*[]byte)
	*buf = a.AppendTo((*buf)[:0])
	h := Hash(crypto.Sum256(*buf))
	encScratch.Put(buf)
	return h
}

// AppendTo appends the canonical RLP encoding of the transaction to dst.
func (tx *Transaction) AppendTo(dst []byte) []byte {
	dst, list := rlp.StartList(dst)
	dst = rlp.AppendUint(dst, tx.Nonce)
	dst = rlp.AppendString(dst, tx.GasPrice.Bytes())
	dst = rlp.AppendUint(dst, tx.Gas)
	if tx.CreateContract {
		dst = rlp.AppendString(dst, nil)
	} else {
		dst = rlp.AppendString(dst, tx.To[:])
	}
	dst = rlp.AppendString(dst, tx.Value.Bytes())
	dst = rlp.AppendString(dst, tx.Data)
	dst = rlp.AppendString(dst, tx.From[:])
	return rlp.EndList(dst, list)
}

// Encode returns the canonical RLP encoding of the transaction.
func (tx *Transaction) Encode() []byte { return encode(tx) }

// DecodeTransaction parses a transaction from its canonical RLP encoding.
func DecodeTransaction(b []byte) (*Transaction, error) {
	content, rest, err := rlp.SplitList(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, rlp.ErrTrailing
	}
	tx := &Transaction{}
	if tx.Nonce, content, err = rlp.SplitUint(content); err != nil {
		return nil, fmt.Errorf("tx nonce: %w", err)
	}
	var s []byte
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("tx gasprice: %w", err)
	}
	tx.GasPrice.SetBytes(s)
	if tx.Gas, content, err = rlp.SplitUint(content); err != nil {
		return nil, fmt.Errorf("tx gas: %w", err)
	}
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("tx to: %w", err)
	}
	if len(s) == 0 {
		tx.CreateContract = true
	} else {
		tx.To = BytesToAddress(s)
	}
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("tx value: %w", err)
	}
	tx.Value.SetBytes(s)
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("tx data: %w", err)
	}
	tx.Data = append([]byte(nil), s...)
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, fmt.Errorf("tx from: %w", err)
	}
	tx.From = BytesToAddress(s)
	if len(content) != 0 {
		return nil, rlp.ErrTrailing
	}
	return tx, nil
}

// Hash returns the transaction hash (keccak of the RLP encoding), cached.
func (tx *Transaction) Hash() Hash {
	if tx.hash != nil {
		return *tx.hash
	}
	h := hashOf(tx)
	tx.hash = &h
	return h
}

// Cost returns gasPrice*gasLimit + value: the balance a sender must hold.
func (tx *Transaction) Cost() uint256.Int {
	var c, gas uint256.Int
	gas.SetUint64(tx.Gas)
	c.Mul(&tx.GasPrice, &gas)
	c.Add(&c, &tx.Value)
	return c
}

// Header is a block header. StateRoot commits to the post-state; a validator
// accepts the block only if its own re-execution reproduces this root.
// TxRoot and ProfileRoot commit to the body: one hash names one block.
type Header struct {
	ParentHash  Hash
	Number      uint64
	Coinbase    Address
	StateRoot   Hash
	TxRoot      Hash
	ProfileRoot Hash
	ReceiptRoot Hash
	LogsBloom   Bloom
	GasLimit    uint64
	GasUsed     uint64
	Time        uint64
	Extra       []byte
}

// AppendTo appends the canonical RLP encoding of the header to dst.
func (h *Header) AppendTo(dst []byte) []byte {
	dst, list := rlp.StartList(dst)
	dst = rlp.AppendString(dst, h.ParentHash[:])
	dst = rlp.AppendUint(dst, h.Number)
	dst = rlp.AppendString(dst, h.Coinbase[:])
	dst = rlp.AppendString(dst, h.StateRoot[:])
	dst = rlp.AppendString(dst, h.TxRoot[:])
	dst = rlp.AppendString(dst, h.ProfileRoot[:])
	dst = rlp.AppendString(dst, h.ReceiptRoot[:])
	dst = rlp.AppendString(dst, h.LogsBloom[:])
	dst = rlp.AppendUint(dst, h.GasLimit)
	dst = rlp.AppendUint(dst, h.GasUsed)
	dst = rlp.AppendUint(dst, h.Time)
	dst = rlp.AppendString(dst, h.Extra)
	return rlp.EndList(dst, list)
}

// Encode returns the canonical RLP encoding of the header.
func (h *Header) Encode() []byte { return encode(h) }

// Hash returns the header (= block) hash.
func (h *Header) Hash() Hash { return hashOf(h) }

// Block bundles a header, its transactions, and the BlockPilot block profile
// that the proposer ships so validators can schedule and verify in parallel.
type Block struct {
	Header  Header
	Txs     []*Transaction
	Profile *BlockProfile
}

// Hash returns the block (header) hash.
func (b *Block) Hash() Hash { return b.Header.Hash() }

// Number returns the block height.
func (b *Block) Number() uint64 { return b.Header.Number }

// ComputeTxRoot returns the transaction trie root for a transaction list
// (key = rlp(index), value = tx encoding), per the Ethereum header rule.
func ComputeTxRoot(txs []*Transaction) Hash {
	return Hash(trie.ListRoot(len(txs), func(dst []byte, i int) []byte { return txs[i].AppendTo(dst) }))
}

// ComputeProfileRoot returns the Keccak of a profile's canonical encoding,
// what the header's ProfileRoot commits to. A nil profile hashes as the
// empty list, the section a block without one encodes.
func ComputeProfileRoot(p *BlockProfile) Hash { return hashOf(p) }

// Log is an EVM event emitted by LOG0..LOG4.
type Log struct {
	Address Address
	Topics  []Hash
	Data    []byte
}

// Receipt records the outcome of one executed transaction.
type Receipt struct {
	TxHash            Hash
	Status            uint64 // 1 success, 0 reverted
	GasUsed           uint64
	CumulativeGasUsed uint64
	Logs              []*Log
	ReturnData        []byte
	// ContractAddress is set for successful deployment transactions. It is
	// derivable from (From, Nonce), so — as in Ethereum — it does not enter
	// the receipt trie encoding.
	ContractAddress Address
}

// AppendTo appends a canonical RLP encoding (for the receipt trie root) to
// dst.
func (r *Receipt) AppendTo(dst []byte) []byte {
	dst, list := rlp.StartList(dst)
	dst = rlp.AppendString(dst, r.TxHash[:])
	dst = rlp.AppendUint(dst, r.Status)
	dst = rlp.AppendUint(dst, r.GasUsed)
	dst = rlp.AppendUint(dst, r.CumulativeGasUsed)
	dst, logs := rlp.StartList(dst)
	for _, l := range r.Logs {
		var log, topics int
		dst, log = rlp.StartList(dst)
		dst = rlp.AppendString(dst, l.Address[:])
		dst, topics = rlp.StartList(dst)
		for i := range l.Topics {
			dst = rlp.AppendString(dst, l.Topics[i][:])
		}
		dst = rlp.EndList(dst, topics)
		dst = rlp.AppendString(dst, l.Data)
		dst = rlp.EndList(dst, log)
	}
	dst = rlp.EndList(dst, logs)
	return rlp.EndList(dst, list)
}

// Encode returns a canonical RLP encoding (for the receipt trie root).
func (r *Receipt) Encode() []byte { return encode(r) }

// ComputeReceiptRoot returns the receipt trie root.
func ComputeReceiptRoot(receipts []*Receipt) Hash {
	return Hash(trie.ListRoot(len(receipts), func(dst []byte, i int) []byte { return receipts[i].AppendTo(dst) }))
}

// CreateAddress computes the address of a contract deployed by (from, nonce),
// following Ethereum's keccak(rlp([from, nonce]))[12:] rule.
func CreateAddress(from Address, nonce uint64) Address {
	var buf [32]byte // a 20-byte address and a uint64 take at most 31
	enc, list := rlp.StartList(buf[:0])
	enc = rlp.AppendString(enc, from[:])
	enc = rlp.AppendUint(enc, nonce)
	h := crypto.Sum256(rlp.EndList(enc, list))
	return BytesToAddress(h[12:])
}

// Create2Address computes the CREATE2 deployment address:
// keccak(0xff ++ caller ++ salt ++ keccak(initCode))[12:] (EIP-1014).
func Create2Address(from Address, salt Hash, initCode []byte) Address {
	codeHash := crypto.Keccak256(initCode)
	return BytesToAddress(crypto.Keccak256([]byte{0xff}, from.Bytes(), salt.Bytes(), codeHash)[12:])
}
