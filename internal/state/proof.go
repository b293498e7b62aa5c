package state

import (
	"errors"
	"fmt"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// State proofs: with only a block header's state root (agreed on by
// BlockPilot validators), a light client can verify a single account or
// storage slot from a proof served by any full node.

// ErrBadAccountLeaf reports an undecodable account leaf inside a proof.
var ErrBadAccountLeaf = errors.New("state: malformed account leaf in proof")

// AccountProof carries the Merkle path for one account.
type AccountProof struct {
	Address types.Address
	Nodes   [][]byte
}

// StorageProof carries the account path plus the slot path inside the
// account's storage trie.
type StorageProof struct {
	Account AccountProof
	Slot    types.Hash
	Nodes   [][]byte
}

// ProveAccount builds the Merkle proof for an account against s's root.
func (s *Snapshot) ProveAccount(addr types.Address) AccountProof {
	s.wait()
	return AccountProof{
		Address: addr,
		Nodes:   s.accounts.Prove(crypto.Keccak256(addr.Bytes())),
	}
}

// ProveStorage builds the proof for one storage slot: the account proof
// (which commits to the storage root) plus the slot path.
func (s *Snapshot) ProveStorage(addr types.Address, slot types.Hash) StorageProof {
	sp := StorageProof{Account: s.ProveAccount(addr), Slot: slot}
	if st, ok := s.storage[addr]; ok {
		sp.Nodes = st.Prove(crypto.Keccak256(slot.Bytes()))
	}
	return sp
}

// VerifiedAccount is the decoded result of VerifyAccountProof.
type VerifiedAccount struct {
	Exists      bool
	Nonce       uint64
	Balance     uint256.Int
	StorageRoot types.Hash
	CodeHash    types.Hash
}

// VerifyAccountProof checks an account proof against a state root.
func VerifyAccountProof(root types.Hash, proof AccountProof) (VerifiedAccount, error) {
	var out VerifiedAccount
	leaf, err := trie.VerifyProof([32]byte(root), crypto.Keccak256(proof.Address.Bytes()), proof.Nodes)
	if err != nil {
		return out, err
	}
	if leaf == nil {
		return out, nil // proven absent
	}
	content, _, err := rlp.SplitList(leaf)
	if err != nil {
		return out, ErrBadAccountLeaf
	}
	if out.Nonce, content, err = rlp.SplitUint(content); err != nil {
		return out, ErrBadAccountLeaf
	}
	var b []byte
	if b, content, err = rlp.SplitString(content); err != nil {
		return out, ErrBadAccountLeaf
	}
	out.Balance.SetBytes(b)
	if b, content, err = rlp.SplitString(content); err != nil {
		return out, ErrBadAccountLeaf
	}
	out.StorageRoot = types.BytesToHash(b)
	if b, _, err = rlp.SplitString(content); err != nil {
		return out, ErrBadAccountLeaf
	}
	out.CodeHash = types.BytesToHash(b)
	out.Exists = true
	return out, nil
}

// VerifyStorageProof checks a storage proof against a state root and
// returns the slot value (zero when proven absent).
func VerifyStorageProof(root types.Hash, proof StorageProof) (uint256.Int, error) {
	var v uint256.Int
	acct, err := VerifyAccountProof(root, proof.Account)
	if err != nil {
		return v, err
	}
	if !acct.Exists {
		return v, nil
	}
	leaf, err := trie.VerifyProof([32]byte(acct.StorageRoot), crypto.Keccak256(proof.Slot.Bytes()), proof.Nodes)
	if err != nil {
		return v, fmt.Errorf("storage path: %w", err)
	}
	if leaf == nil {
		return v, nil
	}
	content, _, err := rlp.SplitString(leaf)
	if err != nil {
		return v, fmt.Errorf("storage leaf: %w", err)
	}
	v.SetBytes(content)
	return v, nil
}
