package mv

import (
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// depError is the panic payload a view throws when a read lands on an
// ESTIMATE: the executing transaction suspends on the blocking index. The
// instance recovers it at the execution boundary (no recover() exists
// anywhere between the EVM and the executor, so the unwind is clean).
// key names the contended location — under Block-STM most hot-key pressure
// surfaces as suspensions rather than validation aborts (the window and
// ESTIMATE markers prevent the doomed execution), so the adaptive
// controller's contention signal has to come from here.
type depError struct {
	blocking int
	key      types.StateKey
}

// view is the state.Reader one incarnation of one transaction executes
// against. Every read resolves through the multi-version chains exactly
// once per (key, path) and is cached for the rest of the incarnation — the
// Overlay on top loads an account's existence, nonce and balance as three
// separate base calls, and a torn resolution across a concurrent re-record
// would hand the EVM an inconsistent account. The cache also is the read
// set: one ReadRecord per resolution, with the version observed.
type view struct {
	m   *Memory
	idx int

	acct  map[types.Address]*viewAcct
	slots map[slotKey]uint256.Int
	recs  []ReadRecord
}

type viewAcct struct {
	scalarDone bool
	chainAcct  bool // scalar resolved from a chain entry (account exists)
	nonce      uint64
	balance    uint256.Int
	exists     bool

	codeDone     bool
	chainCode    bool // code resolved from a chain entry
	code         []byte
	baseCodeHash types.Hash // the base's answer; unset when chainCode
}

type slotKey struct {
	addr types.Address
	slot types.Hash
}

func newView(m *Memory, idx int) *view {
	return &view{
		m:     m,
		idx:   idx,
		acct:  make(map[types.Address]*viewAcct),
		slots: make(map[slotKey]uint256.Int),
	}
}

func (v *view) account(addr types.Address) *viewAcct {
	va := v.acct[addr]
	if va == nil {
		va = &viewAcct{}
		v.acct[addr] = va
	}
	return va
}

// resolveScalar materializes the account's scalar fields, recording the
// read on first resolution.
func (v *view) resolveScalar(addr types.Address) *viewAcct {
	va := v.account(addr)
	if va.scalarDone {
		return va
	}
	if !v.m.stale {
		if e, ok := v.m.store.ResolveAccount(addr, uint64(v.idx)); ok {
			if e.Estimate {
				panic(depError{blocking: int(e.Key), key: types.AccountKey(addr)})
			}
			va.nonce, va.balance, va.exists = e.Val.Nonce, e.Val.Balance, true
			va.chainAcct = true
			va.scalarDone = true
			v.recs = append(v.recs, ReadRecord{Addr: addr, Kind: readScalar, Tx: int(e.Key), Inc: e.Inc})
			return va
		}
	}
	if v.m.base.Exists(addr) {
		va.nonce = v.m.base.Nonce(addr)
		va.balance = v.m.base.Balance(addr)
		va.exists = true
	}
	va.scalarDone = true
	v.recs = append(v.recs, ReadRecord{Addr: addr, Kind: readScalar, Tx: baseVersion})
	return va
}

// resolveCode materializes the account's code path, recording the read on
// first resolution.
func (v *view) resolveCode(addr types.Address) *viewAcct {
	va := v.account(addr)
	if va.codeDone {
		return va
	}
	if !v.m.stale {
		if e, ok := v.m.store.ResolveCode(addr, uint64(v.idx)); ok {
			if e.Estimate {
				panic(depError{blocking: int(e.Key), key: types.AccountKey(addr)})
			}
			va.code = e.Val.Code
			va.chainCode = true
			va.codeDone = true
			v.recs = append(v.recs, ReadRecord{Addr: addr, Kind: readCode, Tx: int(e.Key), Inc: e.Inc})
			return va
		}
	}
	va.code = v.m.base.Code(addr)
	va.baseCodeHash = v.m.base.CodeHash(addr)
	va.codeDone = true
	v.recs = append(v.recs, ReadRecord{Addr: addr, Kind: readCode, Tx: baseVersion})
	return va
}

// Nonce implements state.Reader.
func (v *view) Nonce(addr types.Address) uint64 { return v.resolveScalar(addr).nonce }

// Balance implements state.Reader.
func (v *view) Balance(addr types.Address) uint256.Int { return v.resolveScalar(addr).balance }

// Exists implements state.Reader.
func (v *view) Exists(addr types.Address) bool { return v.resolveScalar(addr).exists }

// Code implements state.Reader.
func (v *view) Code(addr types.Address) []byte { return v.resolveCode(addr).code }

// CodeHash implements state.Reader by the rule the OCC mvView follows too
// (state.ChainCodeHash). The scalar path is resolved — and so recorded as a
// read — only when the code did not come from a chain entry.
func (v *view) CodeHash(addr types.Address) types.Hash {
	va := v.resolveCode(addr)
	scalarOK := !va.chainCode && v.resolveScalar(addr).chainAcct
	return state.ChainCodeHash(va.code, va.chainCode, scalarOK, va.baseCodeHash)
}

// Storage implements state.Reader.
func (v *view) Storage(addr types.Address, slot types.Hash) uint256.Int {
	sk := slotKey{addr: addr, slot: slot}
	if val, ok := v.slots[sk]; ok {
		return val
	}
	var val uint256.Int
	if !v.m.stale {
		if e, ok := v.m.store.ResolveSlot(addr, slot, uint64(v.idx)); ok {
			if e.Estimate {
				panic(depError{blocking: int(e.Key), key: types.StorageKey(addr, slot)})
			}
			val = e.Val
			v.slots[sk] = val
			v.recs = append(v.recs, ReadRecord{Addr: addr, Slot: slot, Kind: readSlot, Tx: int(e.Key), Inc: e.Inc})
			return val
		}
	}
	val = v.m.base.Storage(addr, slot)
	v.slots[sk] = val
	v.recs = append(v.recs, ReadRecord{Addr: addr, Slot: slot, Kind: readSlot, Tx: baseVersion})
	return val
}
