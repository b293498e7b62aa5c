package validator

import (
	"runtime"
	"sync"

	"blockpilot/internal/chain"
	"blockpilot/internal/crypto"
	"blockpilot/internal/evm"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// writerIndex lists, for each key the block's profile writes, the block
// positions whose profile writes it, newest first: head[k]−1 is k's newest
// entry in list, and each entry's next its older one (−1 ends). Under
// slotsOf(addr) it lists the positions that write any slot of addr. Built in
// preparation (a follower's leader's too), pooled across blocks as follower is.
type writerIndex struct {
	head map[types.StateKey]int32
	list []struct{ pos, next int32 }
}

var writerIndexes = sync.Pool{New: func() any { return &writerIndex{head: make(map[types.StateKey]int32)} }}

// depWaits counts the reads that found their writer unfinished.
var depWaits = telemetry.NewCounter("blockpilot_validator_dep_waits_total",
	"Validator reads that found the lower transaction writing their key unfinished and yield-waited for it.")

// slotsOf is the index's key for the writers of any slot of addr, a kind no
// profile key has.
func slotsOf(addr types.Address) types.StateKey {
	return types.StateKey{Addr: addr, Kind: types.KeyStorage + 1}
}

func (wi *writerIndex) build(txs []*types.TxProfile) {
	clear(wi.head)
	wi.list = wi.list[:0]
	add := func(k types.StateKey, i int) {
		wi.list = append(wi.list, struct{ pos, next int32 }{int32(i), wi.head[k] - 1})
		wi.head[k] = int32(len(wi.list))
	}
	for i, tp := range txs {
		for j, k := range tp.Writes {
			add(k, i)
			// A sorted write set lists an account's slots together.
			if k.Kind == types.KeyStorage && (j == 0 || tp.Writes[j-1].Kind != types.KeyStorage || tp.Writes[j-1].Addr != k.Addr) {
				add(slotsOf(k.Addr), i)
			}
		}
	}
}

// below returns the newest entry of k's writers under position i, or −1.
func (wi *writerIndex) below(k types.StateKey, i int32) int32 {
	e := wi.head[k] - 1
	for e >= 0 && wi.list[e].pos >= i {
		e = wi.list[e].next
	}
	return e
}

// readWriters returns 1 + the newest position below i that the index names
// as a writer of any of reads (0 when none) and how many of reads name one:
// the assign event's payload.
func (wi *writerIndex) readWriters(reads []types.KeyVersion, i int32) (writer, named int) {
	for _, kv := range reads {
		if e := wi.below(kv.Key, i); e >= 0 {
			writer, named = max(writer, int(wi.list[e].pos)+1), named+1
		}
	}
	return writer, named
}

// view is the state.Reader a lane runs the transaction at position pos on.
// Each read takes the value of the newest lower transaction that the index
// names as a writer of its key and whose write set holds it, which is what
// a serial execution of the block reads; with no such writer, the parent's.
// A write the writer reverted is in its profile but not in its write set,
// so the read falls through to the writer before it.
type view struct {
	base state.Reader
	res  []result
	wi   *writerIndex
	pos  int32
}

// changes returns the write set of position w, yield-waiting while w is
// unfinished. A failed w stops the reading transaction (errWriterFailed).
func (v *view) changes(w int32) *state.ChangeSet {
	r := &v.res[w]
	s := r.state.Load()
	if s == pending {
		depWaits.Inc()
		for ; s == pending; s = r.state.Load() {
			runtime.Gosched()
		}
	}
	if s == failed {
		panic(errWriterFailed)
	}
	return r.changes
}

// holder returns addr's change in the newest write set that holds addr
// among the writers from entry e down, and the entry below that writer.
func (v *view) holder(e int32, addr types.Address) (*state.AccountChange, int32) {
	for ; e >= 0; e = v.wi.list[e].next {
		if ch := v.changes(v.wi.list[e].pos).Account(addr); ch != nil {
			return ch, v.wi.list[e].next
		}
	}
	return nil, -1
}

// coder returns addr's change in the newest write set, among the writers
// from entry e down, that holds addr and sets its code; nil when none does.
func (v *view) coder(e int32, addr types.Address) (ch *state.AccountChange) {
	for ch, e = v.holder(e, addr); ch != nil && !ch.CodeSet; ch, e = v.holder(e, addr) {
	}
	return ch
}

// Account implements state.Reader: nonce and balance from the newest
// holder among the account key's writers, the code hash from the newest
// one that set code. Only an account the parent lacks asks the writers of
// its slots whether one of them created it.
func (v *view) Account(addr types.Address) (state.Account, bool) {
	e := v.wi.below(types.AccountKey(addr), v.pos)
	ch, _ := v.holder(e, addr)
	if ch == nil {
		acct, ok := v.base.Account(addr)
		if !ok {
			if ch, _ = v.holder(v.wi.below(slotsOf(addr), v.pos), addr); ch != nil {
				return state.Account{Nonce: ch.Nonce, Balance: ch.Balance, CodeHash: state.EmptyCodeHash}, true
			}
		}
		return acct, ok
	}
	acct := state.Account{Nonce: ch.Nonce, Balance: ch.Balance, CodeHash: state.EmptyCodeHash}
	if c := v.coder(e, addr); c != nil {
		acct.CodeHash = types.Hash(crypto.Sum256(c.Code))
	} else if below, ok := v.base.Account(addr); ok {
		acct.CodeHash = below.CodeHash
	}
	return acct, true
}

// Code implements state.Reader.
func (v *view) Code(addr types.Address) []byte {
	if c := v.coder(v.wi.below(types.AccountKey(addr), v.pos), addr); c != nil {
		return c.Code
	}
	return v.base.Code(addr)
}

// Storage implements state.Reader.
func (v *view) Storage(addr types.Address, slot types.Hash) uint256.Int {
	for e := v.wi.below(types.StorageKey(addr, slot), v.pos); e >= 0; e = v.wi.list[e].next {
		if ch := v.changes(v.wi.list[e].pos).Account(addr); ch != nil {
			if val, ok := ch.Slot(slot); ok {
				return val
			}
		}
	}
	return v.base.Storage(addr, slot)
}

// apply is chain.ApplyTransactionCoinbase on a lane's overlay, with a view's
// stop on a failed writer returned as errWriterFailed.
func apply(o *state.Overlay, tx *types.Transaction, bc evm.BlockContext) (receipt *types.Receipt, fee *uint256.Int, readCoinbase bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			if p != errWriterFailed {
				panic(p)
			}
			err = errWriterFailed
		}
	}()
	return chain.ApplyTransactionCoinbase(o, tx, bc)
}
