package state

import (
	"blockpilot/internal/crypto"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Overlay is a speculative write buffer over a base Reader. Every executor
// in BlockPilot — proposer OCC-WSI workers, validator subgraph workers, the
// serial baseline — runs transactions against an Overlay:
//
//   - reads that fall through to the base are recorded in the access set at
//     the overlay's snapshot version (the paper's rs entries <key, version>);
//   - writes are buffered and recorded (the ws);
//   - Snapshot/RevertToSnapshot give the EVM cheap call-frame rollback via
//     an undo journal;
//   - ChangeSet materializes the surviving writes for commit.
//
// An Overlay is single-goroutine; concurrency comes from running many
// overlays over a shared immutable base.
type Overlay struct {
	base    Reader
	version types.Version
	access  *types.AccessSet

	accounts map[types.Address]*ovAccount
	logs     []*types.Log
	journal  []undo
	refund   uint64
}

// ovAccount caches one account's view: base values plus buffered writes.
type ovAccount struct {
	nonce      uint64
	balance    uint256.Int
	exists     bool
	dirty      bool // nonce/balance/exists differ from base
	code       []byte
	codeHash   types.Hash
	codeLoaded bool
	codeDirty  bool
	storage    map[types.Hash]uint256.Int // cached clean + dirty slot values
	dirtySlots map[types.Hash]bool
}

// undo is one journal entry.
type undo interface{ revert(o *Overlay) }

type undoAccount struct {
	addr    types.Address
	nonce   uint64
	balance uint256.Int
	exists  bool
	dirty   bool
}

func (u undoAccount) revert(o *Overlay) {
	a := o.accounts[u.addr]
	a.nonce, a.balance, a.exists, a.dirty = u.nonce, u.balance, u.exists, u.dirty
}

type undoCode struct {
	addr       types.Address
	code       []byte
	codeHash   types.Hash
	codeLoaded bool
	codeDirty  bool
}

func (u undoCode) revert(o *Overlay) {
	a := o.accounts[u.addr]
	a.code, a.codeHash, a.codeLoaded, a.codeDirty = u.code, u.codeHash, u.codeLoaded, u.codeDirty
}

type undoSlot struct {
	addr        types.Address
	slot        types.Hash
	prev        uint256.Int
	prevPresent bool
	prevDirty   bool
}

func (u undoSlot) revert(o *Overlay) {
	a := o.accounts[u.addr]
	if u.prevPresent {
		a.storage[u.slot] = u.prev
	} else {
		delete(a.storage, u.slot)
	}
	if u.prevDirty {
		a.dirtySlots[u.slot] = true
	} else {
		delete(a.dirtySlots, u.slot)
	}
}

type undoLog struct{}

func (undoLog) revert(o *Overlay) { o.logs = o.logs[:len(o.logs)-1] }

type undoRefund struct{ prev uint64 }

func (u undoRefund) revert(o *Overlay) { o.refund = u.prev }

// NewOverlay returns an overlay over base, recording reads at version.
func NewOverlay(base Reader, version types.Version) *Overlay {
	return &Overlay{
		base:     base,
		version:  version,
		access:   types.NewAccessSet(),
		accounts: make(map[types.Address]*ovAccount),
	}
}

// Version returns the snapshot version reads are stamped with.
func (o *Overlay) Version() types.Version { return o.version }

// Access returns the recorded access set.
func (o *Overlay) Access() *types.AccessSet { return o.access }

// load materializes the account cache entry (no access recording): the
// overlay's one Account call for addr, which also brings the code hash.
func (o *Overlay) load(addr types.Address) *ovAccount {
	if a, ok := o.accounts[addr]; ok {
		return a
	}
	a := &ovAccount{
		storage:    make(map[types.Hash]uint256.Int),
		dirtySlots: make(map[types.Hash]bool),
	}
	if o.base != nil {
		var acct Account
		acct, a.exists = o.base.Account(addr)
		a.nonce, a.balance, a.codeHash = acct.Nonce, acct.Balance, acct.CodeHash
	}
	o.accounts[addr] = a
	return a
}

// noteAccountRead records a read of the account-level key.
func (o *Overlay) noteAccountRead(addr types.Address) {
	o.access.NoteRead(types.AccountKey(addr), o.version)
}

// noteAccountWrite records a write of the account-level key.
func (o *Overlay) noteAccountWrite(addr types.Address) {
	o.access.NoteWrite(types.AccountKey(addr))
}

// GetBalance returns the account balance, recording the read.
func (o *Overlay) GetBalance(addr types.Address) uint256.Int {
	o.noteAccountRead(addr)
	return o.load(addr).balance
}

// GetNonce returns the account nonce, recording the read.
func (o *Overlay) GetNonce(addr types.Address) uint64 {
	o.noteAccountRead(addr)
	return o.load(addr).nonce
}

// Exists reports account existence, recording the read.
func (o *Overlay) Exists(addr types.Address) bool {
	o.noteAccountRead(addr)
	return o.load(addr).exists
}

// journalAccount pushes the account's current scalar fields onto the journal.
func (o *Overlay) journalAccount(addr types.Address, a *ovAccount) {
	o.journal = append(o.journal, undoAccount{
		addr: addr, nonce: a.nonce, balance: a.balance, exists: a.exists, dirty: a.dirty,
	})
}

// SetBalance overwrites the balance, recording the write.
func (o *Overlay) SetBalance(addr types.Address, v *uint256.Int) {
	a := o.load(addr)
	o.journalAccount(addr, a)
	a.balance = *v
	a.exists = true
	a.dirty = true
	o.noteAccountWrite(addr)
}

// AddBalance adds v to the balance (read + write).
func (o *Overlay) AddBalance(addr types.Address, v *uint256.Int) {
	o.noteAccountRead(addr)
	a := o.load(addr)
	o.journalAccount(addr, a)
	a.balance.Add(&a.balance, v)
	a.exists = true
	a.dirty = true
	o.noteAccountWrite(addr)
}

// SubBalance subtracts v from the balance (read + write). The caller must
// have checked sufficiency; the value saturates at zero defensively.
func (o *Overlay) SubBalance(addr types.Address, v *uint256.Int) {
	o.noteAccountRead(addr)
	a := o.load(addr)
	o.journalAccount(addr, a)
	if _, under := a.balance.SubUnderflow(&a.balance, v); under {
		a.balance.Clear()
	}
	a.exists = true
	a.dirty = true
	o.noteAccountWrite(addr)
}

// SetNonce sets the account nonce, recording the write.
func (o *Overlay) SetNonce(addr types.Address, n uint64) {
	a := o.load(addr)
	o.journalAccount(addr, a)
	a.nonce = n
	a.exists = true
	a.dirty = true
	o.noteAccountWrite(addr)
}

// loadCode pulls code from the base into the cache — only when the code hash
// that load brought says there is some: an EOA or an absent account costs the
// base no Code call.
func (o *Overlay) loadCode(addr types.Address, a *ovAccount) {
	if a.codeLoaded {
		return
	}
	switch {
	case a.codeHash == (types.Hash{}):
		if a.exists { // absent below, created in this overlay
			a.codeHash = EmptyCodeHash
		}
	case a.codeHash != EmptyCodeHash:
		a.code = o.base.Code(addr)
	}
	a.codeLoaded = true
}

// GetCode returns the contract code, recording the read.
func (o *Overlay) GetCode(addr types.Address) []byte {
	o.noteAccountRead(addr)
	a := o.load(addr)
	o.loadCode(addr, a)
	return a.code
}

// GetCodeHash returns the code hash, recording the read.
func (o *Overlay) GetCodeHash(addr types.Address) types.Hash {
	o.noteAccountRead(addr)
	a := o.load(addr)
	o.loadCode(addr, a)
	return a.codeHash
}

// GetCodeSize returns len(code), recording the read.
func (o *Overlay) GetCodeSize(addr types.Address) int {
	return len(o.GetCode(addr))
}

// SetCode installs contract code, recording the write.
func (o *Overlay) SetCode(addr types.Address, code []byte) {
	a := o.load(addr)
	o.loadCode(addr, a)
	o.journal = append(o.journal, undoCode{
		addr: addr, code: a.code, codeHash: a.codeHash,
		codeLoaded: a.codeLoaded, codeDirty: a.codeDirty,
	})
	o.journalAccount(addr, a)
	a.code = append([]byte(nil), code...)
	a.codeHash = types.Hash(crypto.Sum256(code))
	a.codeLoaded = true
	a.codeDirty = true
	a.exists = true
	a.dirty = true
	o.noteAccountWrite(addr)
}

// GetState returns a storage slot value, recording the read when it falls
// through to the base (reads of this transaction's own writes are private).
func (o *Overlay) GetState(addr types.Address, slot types.Hash) uint256.Int {
	a := o.load(addr)
	if v, ok := a.storage[slot]; ok {
		if !a.dirtySlots[slot] {
			// Cached clean value: still a base read, but it was recorded on
			// first load; NoteRead below is idempotent anyway.
			o.access.NoteRead(types.StorageKey(addr, slot), o.version)
		}
		return v
	}
	var v uint256.Int
	if o.base != nil {
		v = o.base.Storage(addr, slot)
	}
	a.storage[slot] = v
	o.access.NoteRead(types.StorageKey(addr, slot), o.version)
	return v
}

// SetState writes a storage slot, recording the write.
func (o *Overlay) SetState(addr types.Address, slot types.Hash, v uint256.Int) {
	a := o.load(addr)
	prev, present := a.storage[slot]
	o.journal = append(o.journal, undoSlot{
		addr: addr, slot: slot, prev: prev, prevPresent: present, prevDirty: a.dirtySlots[slot],
	})
	a.storage[slot] = v
	a.dirtySlots[slot] = true
	a.exists = true
	o.access.NoteWrite(types.StorageKey(addr, slot))
}

// AddLog appends an event log.
func (o *Overlay) AddLog(l *types.Log) {
	o.logs = append(o.logs, l)
	o.journal = append(o.journal, undoLog{})
}

// Logs returns the accumulated logs.
func (o *Overlay) Logs() []*types.Log { return o.logs }

// AddRefund increases the gas refund counter.
func (o *Overlay) AddRefund(v uint64) {
	o.journal = append(o.journal, undoRefund{prev: o.refund})
	o.refund += v
}

// SubRefund decreases the gas refund counter (saturating).
func (o *Overlay) SubRefund(v uint64) {
	o.journal = append(o.journal, undoRefund{prev: o.refund})
	if v > o.refund {
		o.refund = 0
	} else {
		o.refund -= v
	}
}

// GetRefund returns the refund counter.
func (o *Overlay) GetRefund() uint64 { return o.refund }

// ResetRefund zeroes the refund counter (called at transaction start when an
// overlay is reused across transactions, e.g. by the serial executor).
func (o *Overlay) ResetRefund() {
	o.journal = append(o.journal, undoRefund{prev: o.refund})
	o.refund = 0
}

// TakeLogs returns the logs accumulated since the given start index
// (a previous len(Logs()) observation), for per-transaction receipts.
func (o *Overlay) TakeLogs(start int) []*types.Log {
	if start > len(o.logs) {
		start = len(o.logs)
	}
	return o.logs[start:]
}

// Snapshot returns a revert point for the current journal position.
func (o *Overlay) Snapshot() int { return len(o.journal) }

// RevertToSnapshot undoes all writes after the given revert point. Access
// records are kept: a reverted branch still executed, and keeping its
// accesses makes conflict detection conservative and replay-deterministic.
func (o *Overlay) RevertToSnapshot(snap int) {
	for i := len(o.journal) - 1; i >= snap; i-- {
		o.journal[i].revert(o)
	}
	o.journal = o.journal[:snap]
}

// ChangeSet materializes the surviving writes.
func (o *Overlay) ChangeSet() *ChangeSet {
	cs := NewChangeSet()
	for addr, a := range o.accounts {
		if !a.dirty && !a.codeDirty && len(a.dirtySlots) == 0 {
			continue
		}
		ch := &AccountChange{Nonce: a.nonce, Balance: a.balance}
		if a.codeDirty {
			ch.Code, ch.CodeSet = a.code, true
		}
		if len(a.dirtySlots) > 0 {
			ch.Storage = make(map[types.Hash]uint256.Int, len(a.dirtySlots))
			for slot := range a.dirtySlots {
				ch.Storage[slot] = a.storage[slot]
			}
		}
		cs.Accounts[addr] = ch
	}
	return cs
}
