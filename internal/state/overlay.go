package state

import (
	"slices"

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
// overlays over a shared immutable base. A lane — a proposer worker, a
// validator lane, the serial executor — is serial by construction, so it makes
// one Overlay and re-arms it with Reset for each transaction (DESIGN.md, "The
// overlay's reuse contract").
type Overlay struct {
	base    Reader
	version types.Version
	access  *types.AccessSet

	accounts map[types.Address]*ovAccount
	free     []*ovAccount // entries of earlier executions, recycled by load
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
	// storage holds the slots read (clean) and written (dirty), made on the
	// first slot access: an EOA never needs one.
	storage    map[types.Hash]ovSlot
	dirtySlots int // dirty entries in storage
}

// ovSlot is one cached storage slot.
type ovSlot struct {
	val   uint256.Int
	dirty bool
}

func (a *ovAccount) setSlot(slot types.Hash, s ovSlot) {
	if a.storage == nil {
		a.storage = make(map[types.Hash]ovSlot)
	}
	a.storage[slot] = s
}

type undoKind uint8

const (
	undoAccount undoKind = iota // nonce, balance, exists, dirty
	undoCode                    // code, codeHash, codeLoaded, codeDirty
	undoSlot                    // slot, prev, present
	undoLog                     // pops the last log
	undoRefund                  // refund
)

// undo is one journal entry: the values to put back, tagged with what they
// belong to. It is a plain struct rather than an interface over one type per
// kind so that the journal is a single array — journaling a write allocates
// nothing, and the array outlives Reset.
type undo struct {
	kind undoKind
	addr types.Address

	exists, dirty         bool
	codeLoaded, codeDirty bool
	present               bool // undoSlot: the slot was cached before the write

	nonce    uint64
	balance  uint256.Int
	code     []byte
	codeHash types.Hash
	slot     types.Hash
	prev     ovSlot
	refund   uint64
}

func (u *undo) revert(o *Overlay) {
	switch u.kind {
	case undoAccount:
		a := o.accounts[u.addr]
		a.nonce, a.balance, a.exists, a.dirty = u.nonce, u.balance, u.exists, u.dirty
	case undoCode:
		a := o.accounts[u.addr]
		a.code, a.codeHash, a.codeLoaded, a.codeDirty = u.code, u.codeHash, u.codeLoaded, u.codeDirty
	case undoSlot:
		a := o.accounts[u.addr]
		if u.present {
			a.storage[u.slot] = u.prev
		} else {
			delete(a.storage, u.slot)
		}
		if !u.prev.dirty {
			a.dirtySlots--
		}
	case undoLog:
		o.logs = o.logs[:len(o.logs)-1]
	case undoRefund:
		o.refund = u.refund
	}
}

// NewOverlay returns an overlay over base, recording reads at version.
func NewOverlay(base Reader, version types.Version) *Overlay {
	return &Overlay{
		base:     base,
		version:  version,
		access:   types.NewAccessSet(),
		accounts: make(map[types.Address]*ovAccount),
	}
}

// Reset re-arms the overlay for the next execution, over base at version: it
// behaves from here exactly as NewOverlay(base, version) would, but keeps the
// maps, account entries and journal array the previous execution grew. What
// that execution handed out by reference — Access() and Logs() — is the
// overlay's own and is emptied; what it handed out by value — ChangeSet(), a
// receipt's copy of the logs, a profile built from the access set — stays
// the caller's and shares nothing with the overlay.
func (o *Overlay) Reset(base Reader, version types.Version) {
	o.base, o.version = base, version
	for _, a := range o.accounts {
		o.free = append(o.free, a)
	}
	clear(o.accounts)
	clear(o.access.Reads)
	clear(o.access.Writes)
	o.logs = nil // a caller may still hold the previous Logs()
	o.journal = o.journal[:0]
	o.refund = 0
}

// Version returns the snapshot version reads are stamped with.
func (o *Overlay) Version() types.Version { return o.version }

// Rebase moves the snapshot to version: the reads recorded so far are
// re-stamped with it and later ones carry it. Only the base can call it, and
// only once it has established that every value it has served this overlay
// since Reset is its value at version too — the execution is then the one
// NewOverlay(base, version) would have run (core.mvView's snapshot extension).
func (o *Overlay) Rebase(version types.Version) {
	o.version = version
	for key := range o.access.Reads {
		o.access.Reads[key] = version
	}
}

// Access returns the recorded access set.
func (o *Overlay) Access() *types.AccessSet { return o.access }

// load materializes the account cache entry (no access recording): the
// overlay's one Account call for addr, which also brings the code hash.
func (o *Overlay) load(addr types.Address) *ovAccount {
	if a, ok := o.accounts[addr]; ok {
		return a
	}
	var (
		acct   Account
		exists bool
	)
	if o.base != nil {
		acct, exists = o.base.Account(addr)
	}
	var a *ovAccount
	if n := len(o.free); n > 0 {
		a, o.free = o.free[n-1], o.free[:n-1]
		clear(a.storage)
		*a = ovAccount{storage: a.storage}
	} else {
		a = new(ovAccount)
	}
	a.nonce, a.balance, a.codeHash, a.exists = acct.Nonce, acct.Balance, acct.CodeHash, exists
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
	o.journal = append(o.journal, undo{
		kind: undoAccount, addr: addr, nonce: a.nonce, balance: a.balance, exists: a.exists, dirty: a.dirty,
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
	o.journal = append(o.journal, undo{
		kind: undoCode, addr: addr, code: a.code, codeHash: a.codeHash,
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
	if s, ok := a.storage[slot]; ok {
		if !s.dirty {
			// Cached clean value: still a base read, but it was recorded on
			// first load; NoteRead below is idempotent anyway.
			o.access.NoteRead(types.StorageKey(addr, slot), o.version)
		}
		return s.val
	}
	var v uint256.Int
	if o.base != nil {
		v = o.base.Storage(addr, slot)
	}
	a.setSlot(slot, ovSlot{val: v})
	o.access.NoteRead(types.StorageKey(addr, slot), o.version)
	return v
}

// SetState writes a storage slot, recording the write.
func (o *Overlay) SetState(addr types.Address, slot types.Hash, v uint256.Int) {
	a := o.load(addr)
	prev, present := a.storage[slot]
	o.journal = append(o.journal, undo{kind: undoSlot, addr: addr, slot: slot, prev: prev, present: present})
	if !prev.dirty {
		a.dirtySlots++
	}
	a.setSlot(slot, ovSlot{val: v, dirty: true})
	a.exists = true
	o.access.NoteWrite(types.StorageKey(addr, slot))
}

// AddLog appends an event log.
func (o *Overlay) AddLog(l *types.Log) {
	o.logs = append(o.logs, l)
	o.journal = append(o.journal, undo{kind: undoLog})
}

// Logs returns the accumulated logs.
func (o *Overlay) Logs() []*types.Log { return o.logs }

// AddRefund increases the gas refund counter.
func (o *Overlay) AddRefund(v uint64) {
	o.journal = append(o.journal, undo{kind: undoRefund, refund: o.refund})
	o.refund += v
}

// SubRefund decreases the gas refund counter (saturating).
func (o *Overlay) SubRefund(v uint64) {
	o.journal = append(o.journal, undo{kind: undoRefund, refund: o.refund})
	if v > o.refund {
		o.refund = 0
	} else {
		o.refund -= v
	}
}

// GetRefund returns the refund counter.
func (o *Overlay) GetRefund() uint64 { return o.refund }

// ResetRefund zeroes the refund counter (called at transaction start: an
// overlay that runs several transactions without a Reset between them starts
// each with no refund).
func (o *Overlay) ResetRefund() {
	o.journal = append(o.journal, undo{kind: undoRefund, refund: o.refund})
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

// ChangeSet materializes the surviving writes as a sorted set of two arrays:
// the accounts, and one slot array that every account's Slots sub-slices.
func (o *Overlay) ChangeSet() *ChangeSet {
	n, slots := 0, 0
	for _, a := range o.accounts {
		if a.dirty || a.codeDirty || a.dirtySlots > 0 {
			n, slots = n+1, slots+a.dirtySlots
		}
	}
	cs := &ChangeSet{Accounts: make([]AccountChange, 0, n)}
	all := make([]SlotChange, 0, slots) // a zero capacity allocates nothing
	for addr, a := range o.accounts {
		if !a.dirty && !a.codeDirty && a.dirtySlots == 0 {
			continue
		}
		ch := AccountChange{Addr: addr, Nonce: a.nonce, Balance: a.balance}
		if a.codeDirty {
			ch.Code, ch.CodeSet = a.code, true
		}
		if a.dirtySlots > 0 {
			start := len(all)
			for slot, s := range a.storage {
				if s.dirty {
					all = append(all, SlotChange{Slot: slot, Val: s.val})
				}
			}
			ch.Slots = all[start:len(all):len(all)]
			sortSlots(ch.Slots)
		}
		cs.Accounts = append(cs.Accounts, ch)
	}
	slices.SortFunc(cs.Accounts, func(a, b AccountChange) int { return compareAddr(&a.Addr, &b.Addr) })
	return cs
}
