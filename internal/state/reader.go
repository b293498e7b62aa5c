// Package state implements the Ethereum-style world state: a trie-backed
// persistent Snapshot (committed state with a provable root), a mutable
// Memory state for accumulation, and Overlay — the speculative,
// access-recording write buffer every parallel executor in BlockPilot runs
// on top of.
package state

import (
	"bytes"
	"cmp"
	"slices"

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

// SlotChange is one written storage slot of an AccountChange.
type SlotChange struct {
	Slot types.Hash
	Val  uint256.Int
}

// AccountChange is one account of a ChangeSet: the full post-values of the
// account fields plus the dirty storage slots, sorted by slot and unique.
type AccountChange struct {
	Addr    types.Address
	Nonce   uint64
	Balance uint256.Int
	Code    []byte // nil = unchanged
	CodeSet bool
	Slots   []SlotChange
}

// ChangeSet is the write set of one or more executions in materialized form:
// applying it to the base state the execution ran against yields the
// post-state. Accounts is sorted by address and unique. Commits and sibling
// blocks share a set's arrays, so it is never mutated once its
// builder (SetAccount, Drop) hands it out.
type ChangeSet struct {
	Accounts []AccountChange
}

// NewChangeSet sorts accounts into a change set, as Fold would merge them one
// by one: genesis, credits and tests build sets with it.
func NewChangeSet(accounts ...AccountChange) *ChangeSet {
	return Fold(&ChangeSet{Accounts: accounts})
}

func compareAddr(a, b *types.Address) int { return bytes.Compare(a[:], b[:]) }
func compareSlot(a, b SlotChange) int     { return bytes.Compare(a.Slot[:], b.Slot[:]) }

// search returns addr's position in cs.Accounts, or where it would go.
func (cs *ChangeSet) search(addr types.Address) (int, bool) {
	return slices.BinarySearchFunc(cs.Accounts, addr, func(c AccountChange, a types.Address) int { return compareAddr(&c.Addr, &a) })
}

// Account returns addr's change, or nil.
func (cs *ChangeSet) Account(addr types.Address) *AccountChange {
	if i, ok := cs.search(addr); ok {
		return &cs.Accounts[i]
	}
	return nil
}

// Slot returns the written value of slot, if the change has one.
func (ch *AccountChange) Slot(slot types.Hash) (uint256.Int, bool) {
	if i, ok := slices.BinarySearchFunc(ch.Slots, slot, func(s SlotChange, h types.Hash) int { return bytes.Compare(s.Slot[:], h[:]) }); ok {
		return ch.Slots[i].Val, true
	}
	return uint256.Int{}, false
}

// SetAccount is the builder's sorted insert or replace of one account's
// nonce and balance, keeping its code and slots: how credits join a block.
func (cs *ChangeSet) SetAccount(addr types.Address, nonce uint64, balance uint256.Int) {
	i, ok := cs.search(addr)
	if !ok {
		cs.Accounts = slices.Insert(cs.Accounts, i, AccountChange{Addr: addr})
	}
	cs.Accounts[i].Nonce, cs.Accounts[i].Balance = nonce, balance
}

// Drop removes addr's change from a set its builder has not handed out.
func (cs *ChangeSet) Drop(addr types.Address) {
	if i, ok := cs.search(addr); ok {
		cs.Accounts = slices.Delete(cs.Accounts, i, i+1)
	}
}

// Fold merges parts in order into one new set: the last writer wins on nonce
// and balance, a code set sticks, and slots form a union in which the last
// write wins. It makes one stable sort of every part's accounts by address and
// one allocation per output array, which shares nothing with the parts; the
// accounts keep room for the finalization credit's SetAccount.
func Fold(parts ...*ChangeSet) *ChangeSet {
	n, slots := 0, 0
	for _, part := range parts {
		n += len(part.Accounts)
	}
	order := make([]uint64, 0, n) // part<<32 | index, in part order
	for p, part := range parts {
		for i := range part.Accounts {
			order = append(order, uint64(p)<<32|uint64(i))
			slots += len(part.Accounts[i].Slots)
		}
	}
	at := func(o uint64) *AccountChange { return &parts[o>>32].Accounts[uint32(o)] }
	slices.SortFunc(order, func(a, b uint64) int { return cmp.Or(compareAddr(&at(a).Addr, &at(b).Addr), cmp.Compare(a, b)) }) // stable
	distinct := 0
	for i := range order {
		if i == 0 || at(order[i]).Addr != at(order[i-1]).Addr {
			distinct++
		}
	}
	cs := &ChangeSet{Accounts: make([]AccountChange, 0, distinct+1)}
	all := make([]SlotChange, 0, slots)
	for i := 0; i < len(order); {
		ch := AccountChange{Addr: at(order[i]).Addr}
		start := len(all)
		for ; i < len(order) && at(order[i]).Addr == ch.Addr; i++ {
			c := at(order[i])
			ch.Nonce, ch.Balance = c.Nonce, c.Balance
			if c.CodeSet {
				ch.Code, ch.CodeSet = c.Code, true
			}
			all = append(all, c.Slots...)
		}
		if len(all) > start {
			all = all[:start+sortSlots(all[start:])]
			ch.Slots = all[start:len(all):len(all)]
		}
		cs.Accounts = append(cs.Accounts, ch)
	}
	return cs
}

// sortSlots stable-sorts slots by slot, keeps the last write of each, and
// returns how many are left at the front.
func sortSlots(slots []SlotChange) int {
	slices.SortStableFunc(slots, compareSlot)
	n := 0
	for i := range slots {
		if n > 0 && slots[n-1].Slot == slots[i].Slot {
			n--
		}
		slots[n] = slots[i]
		n++
	}
	return n
}
