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
// once per key and is cached for the rest of the incarnation, so the base
// sees at most one Account and one Code call per account. The cache also is
// the read set: one ReadRecord per path read, with the version observed.
type view struct {
	m   *Memory
	idx int

	acct  map[types.Address]*viewAcct
	slots map[slotKey]uint256.Int
	recs  []ReadRecord
}

// viewAcct is one account's single store resolution — the scalar entry and
// the code-setting entry at or below it, taken under one lock — and what the
// two paths answered from it. Account and Code both serve from this pair, so
// the code hash the one reports is the hash of what the other returns even
// when a lower transaction re-records (another deploy, or none) between the
// two calls: the EVM's per-code-hash analysis cache depends on it.
type viewAcct struct {
	chain   bool // scalar path resolved from a chain entry
	e, code state.AccountVersion

	scalarDone bool
	account    state.Account
	exists     bool

	codeDone bool // code.Val.Code is the answer, the base's when !code.Val.CodeSet
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

// resolve looks addr up in the store, once per incarnation. It records
// nothing: each path is recorded when it is first read.
func (v *view) resolve(addr types.Address) *viewAcct {
	va := v.acct[addr]
	if va == nil {
		va = &viewAcct{}
		va.e, va.code, va.chain = v.m.store.ResolveAccount(addr, uint64(v.idx))
		v.acct[addr] = va
	}
	return va
}

// read records the first read of one path of addr at the version e it
// resolved to (chain=false: the base), suspending on an ESTIMATE.
func (v *view) read(addr types.Address, kind readKind, e *state.AccountVersion, chain bool) {
	rec := ReadRecord{Addr: addr, Kind: kind, Tx: baseVersion}
	if chain {
		if e.Estimate {
			panic(depError{blocking: int(e.Key), key: types.AccountKey(addr)})
		}
		rec.Tx, rec.Inc = int(e.Key), e.Inc
	}
	v.recs = append(v.recs, rec)
}

// Account implements state.Reader. The code hash rides the scalar record:
// every code-setting entry is a scalar entry too.
func (v *view) Account(addr types.Address) (state.Account, bool) {
	va := v.resolve(addr)
	if !va.scalarDone {
		v.read(addr, readScalar, &va.e, va.chain)
		if va.chain {
			va.account, va.exists = va.e.Val.Over(&va.code.Val, v.m.base, addr), true
		} else {
			va.account, va.exists = v.m.base.Account(addr)
		}
		va.scalarDone = true
	}
	return va.account, va.exists
}

// Code implements state.Reader.
func (v *view) Code(addr types.Address) []byte {
	va := v.resolve(addr)
	if !va.codeDone {
		v.read(addr, readCode, &va.code, va.code.Val.CodeSet)
		if !va.code.Val.CodeSet {
			va.code.Val.Code = v.m.base.Code(addr)
		}
		va.codeDone = true
	}
	return va.code.Val.Code
}

// Storage implements state.Reader.
func (v *view) Storage(addr types.Address, slot types.Hash) uint256.Int {
	sk := slotKey{addr: addr, slot: slot}
	if val, ok := v.slots[sk]; ok {
		return val
	}
	if e, ok := v.m.store.ResolveSlot(addr, slot, uint64(v.idx)); ok {
		if e.Estimate {
			panic(depError{blocking: int(e.Key), key: types.StorageKey(addr, slot)})
		}
		v.slots[sk] = e.Val
		v.recs = append(v.recs, ReadRecord{Addr: addr, Slot: slot, Kind: readSlot, Tx: int(e.Key), Inc: e.Inc})
		return e.Val
	}
	val := v.m.base.Storage(addr, slot)
	v.slots[sk] = val
	v.recs = append(v.recs, ReadRecord{Addr: addr, Slot: slot, Kind: readSlot, Tx: baseVersion})
	return val
}
