package state

import (
	"blockpilot/internal/crypto"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Memory is a mutable, map-backed world state view layered over an optional
// base Reader: the state after a run's earlier transactions, as the serial
// executor (chain.ExecuteSerial), the proposer's credit materialization and
// tests accumulate it. It is not safe for concurrent mutation.
type Memory struct {
	base     Reader
	accounts map[types.Address]*memAccount
}

type memAccount struct {
	nonce    uint64
	balance  uint256.Int
	code     []byte
	codeHash types.Hash
	hasCode  bool // code fields authoritative (otherwise fall through to base)
	storage  map[types.Hash]uint256.Int
}

// NewMemory returns a Memory view over base (base may be nil for an empty
// standalone state).
func NewMemory(base Reader) *Memory {
	return &Memory{base: base, accounts: make(map[types.Address]*memAccount)}
}

// Account implements Reader. An entry is authoritative for nonce, balance
// and existence; an entry that never set code keeps the base's code hash,
// EmptyCodeHash when the base has never heard of the account — one base
// lookup, the same one an untouched account costs (AccountFields.Over).
func (m *Memory) Account(addr types.Address) (Account, bool) {
	a, ok := m.accounts[addr]
	if ok && a.hasCode {
		return Account{Nonce: a.nonce, Balance: a.balance, CodeHash: a.codeHash}, true
	}
	acct, inBase := Account{}, false
	if m.base != nil {
		acct, inBase = m.base.Account(addr)
	}
	if !ok {
		return acct, inBase
	}
	if !inBase {
		acct.CodeHash = EmptyCodeHash
	}
	acct.Nonce, acct.Balance = a.nonce, a.balance
	return acct, true
}

// Code implements Reader.
func (m *Memory) Code(addr types.Address) []byte {
	if a, ok := m.accounts[addr]; ok && a.hasCode {
		return a.code
	}
	if m.base != nil {
		return m.base.Code(addr)
	}
	return nil
}

// Storage implements Reader. A slot written locally shadows the base; other
// slots of the same account still fall through.
func (m *Memory) Storage(addr types.Address, slot types.Hash) uint256.Int {
	if a, ok := m.accounts[addr]; ok {
		if v, ok := a.storage[slot]; ok {
			return v
		}
	}
	if m.base != nil {
		return m.base.Storage(addr, slot)
	}
	return uint256.Int{}
}

// ensure returns addr's entry for the field setters below: a fresh entry
// starts from the base's nonce and balance, so setting one field keeps the
// others.
func (m *Memory) ensure(addr types.Address) *memAccount {
	a, ok := m.accounts[addr]
	if !ok {
		a = &memAccount{}
		if m.base != nil {
			below, _ := m.base.Account(addr)
			a.nonce, a.balance = below.Nonce, below.Balance
		}
		m.accounts[addr] = a
	}
	return a
}

// setSlot writes one slot, allocating the map on an entry's first slot (most
// entries — every plain transfer's two — never have one).
func (a *memAccount) setSlot(slot types.Hash, v uint256.Int) {
	if a.storage == nil {
		a.storage = make(map[types.Hash]uint256.Int)
	}
	a.storage[slot] = v
}

// SetBalance sets an account balance (creating the account).
func (m *Memory) SetBalance(addr types.Address, v *uint256.Int) {
	a := m.ensure(addr)
	a.balance = *v
}

// AddBalance adds to an account balance (creating the account).
func (m *Memory) AddBalance(addr types.Address, v *uint256.Int) {
	a := m.ensure(addr)
	a.balance.Add(&a.balance, v)
}

// SetNonce sets an account nonce (creating the account).
func (m *Memory) SetNonce(addr types.Address, n uint64) {
	a := m.ensure(addr)
	a.nonce = n
}

// SetCode installs contract code (creating the account).
func (m *Memory) SetCode(addr types.Address, code []byte) {
	a := m.ensure(addr)
	a.code = append([]byte(nil), code...)
	a.codeHash = types.Hash(crypto.Sum256(code))
	a.hasCode = true
}

// SetStorage sets one storage slot (creating the account).
func (m *Memory) SetStorage(addr types.Address, slot types.Hash, v uint256.Int) {
	m.ensure(addr).setSlot(slot, v)
}

// ApplyChangeSet applies a materialized write set to the memory state. A
// change carries the account's full post-nonce and post-balance, so nothing
// is read from the base: code and untouched slots keep falling through.
func (m *Memory) ApplyChangeSet(cs *ChangeSet) {
	for _, ch := range cs.Accounts {
		a, ok := m.accounts[ch.Addr]
		if !ok {
			a = &memAccount{}
			m.accounts[ch.Addr] = a
		}
		a.nonce = ch.Nonce
		a.balance = ch.Balance
		if ch.CodeSet {
			a.code = ch.Code
			a.codeHash = types.Hash(crypto.Sum256(ch.Code))
			a.hasCode = true
		}
		for _, s := range ch.Slots {
			a.setSlot(s.Slot, s.Val)
		}
	}
}
