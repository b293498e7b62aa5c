// Package state implements the Ethereum-style world state: a trie-backed
// persistent Snapshot (committed state with a provable root), a mutable
// Memory state for accumulation, and Overlay — the speculative,
// access-recording write buffer every parallel executor in BlockPilot runs
// on top of.
package state

import (
	"blockpilot/internal/crypto"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Reader is the read-only view of a world state. Snapshot, Memory and the
// proposer engines' version-store views implement it, so overlays can stack
// on any of them. An account's scalar fields and code hash come from one
// Account call — one resolution through however many layers sit underneath —
// which is what lets an Overlay load an account once and ask for Code only
// when the hash says there is some (DESIGN.md, "The Reader contract").
type Reader interface {
	// Account returns the account's nonce, balance and code hash
	// (EmptyCodeHash for an account without code); ok is false, and the
	// Account zero, when the account is absent.
	Account(addr types.Address) (acct Account, ok bool)
	// Code returns the account's contract code (nil for EOAs and absents).
	Code(addr types.Address) []byte
	// Storage returns the value of one contract storage slot.
	Storage(addr types.Address, slot types.Hash) uint256.Int
}

// EmptyCodeHash is keccak256 of empty code.
var EmptyCodeHash = types.Hash(crypto.Sum256(nil))

// Account is the materialized view of one account.
type Account struct {
	Nonce    uint64
	Balance  uint256.Int
	CodeHash types.Hash
}

// HasCode reports whether the account carries contract code.
func (a *Account) HasCode() bool {
	return a.CodeHash != EmptyCodeHash && a.CodeHash != (types.Hash{})
}

// AccountChange is the per-account part of a ChangeSet: the full post-values
// of the account fields plus the dirty storage slots.
type AccountChange struct {
	Nonce   uint64
	Balance uint256.Int
	Code    []byte // nil = unchanged
	CodeSet bool
	Storage map[types.Hash]uint256.Int
}

// ChangeSet is the write set of one or more executions in materialized form:
// applying it to the base state the execution ran against yields the
// post-state.
type ChangeSet struct {
	Accounts map[types.Address]*AccountChange
}

// NewChangeSet returns an empty change set.
func NewChangeSet() *ChangeSet {
	return &ChangeSet{Accounts: make(map[types.Address]*AccountChange)}
}

// Merge applies other on top of cs (other wins on overlapping fields).
func (cs *ChangeSet) Merge(other *ChangeSet) {
	for addr, oc := range other.Accounts {
		c, ok := cs.Accounts[addr]
		if !ok {
			c = &AccountChange{}
			cs.Accounts[addr] = c
		}
		c.Nonce = oc.Nonce
		c.Balance = oc.Balance
		if oc.CodeSet {
			c.Code, c.CodeSet = oc.Code, true
		}
		if c.Storage == nil && len(oc.Storage) > 0 { // an EOA never needs one
			c.Storage = make(map[types.Hash]uint256.Int, len(oc.Storage))
		}
		for k, v := range oc.Storage {
			c.Storage[k] = v
		}
	}
}
