package mv

import (
	"slices"
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// chainModel is the serial oracle for FuzzMVVersionChain: plain sorted-map
// version chains with the same ESTIMATE / removal / per-path semantics the
// striped Memory implements.
type chainModel struct {
	// key → tx → entry, one map per path kind.
	scalar map[int]map[int]*modelEntry
	code   map[int]map[int]*modelEntry
	slot   map[[2]int]map[int]*modelEntry

	writes map[int][]writeLoc
	reads  map[int][]ReadRecord
	inc    map[int]int
}

type modelEntry struct {
	inc      int
	estimate bool
	val      uint64
}

func newChainModel() *chainModel {
	return &chainModel{
		scalar: map[int]map[int]*modelEntry{},
		code:   map[int]map[int]*modelEntry{},
		slot:   map[[2]int]map[int]*modelEntry{},
		writes: map[int][]writeLoc{},
		reads:  map[int][]ReadRecord{},
		inc:    map[int]int{},
	}
}

// resolve returns the newest entry below before for one (kind, addr, slot)
// path, mirroring Memory.resolve*.
func (cm *chainModel) resolve(kind readKind, addr, slot, before int) (tx int, e *modelEntry) {
	var m map[int]*modelEntry
	switch kind {
	case readScalar:
		m = cm.scalar[addr]
	case readCode:
		m = cm.code[addr]
	default:
		m = cm.slot[[2]int{addr, slot}]
	}
	tx = -1
	for wtx, ent := range m {
		if wtx < before && wtx > tx {
			tx, e = wtx, ent
		}
	}
	return tx, e
}

// validate mirrors Memory.ValidateReadSet: ok, or the first stale read.
func (cm *chainModel) validate(tx int) (ReadRecord, bool) {
	for _, r := range cm.reads[tx] {
		wtx, e := cm.resolve(r.Kind, int(r.Addr[0])-1, int(r.Slot[0])-1, tx)
		if wtx < 0 {
			if r.Tx != baseVersion {
				return r, false
			}
			continue
		}
		if e.estimate || wtx != r.Tx || e.inc != r.Inc {
			return r, false
		}
	}
	return ReadRecord{}, true
}

// FuzzMVVersionChain drives random interleaved writes, validation aborts
// (ESTIMATE conversions), purges, reads and read-set validations through
// Memory and the model in lockstep, failing on any divergence in
// resolution, wrote-new-path reporting, or validation verdicts.
func FuzzMVVersionChain(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 1, 0, 4, 2, 2, 0})
	f.Add([]byte{0, 0, 1, 0, 1, 3, 1, 0, 0, 4, 0, 0, 0, 2, 1, 3, 3, 0})
	f.Add([]byte{0, 3, 7, 3, 3, 0, 0, 2, 6, 1, 2, 0, 2, 2, 0, 4, 1, 0, 3, 1, 5})
	f.Add([]byte{0, 7, 3, 1, 7, 0, 0, 6, 1, 3, 6, 0, 0, 5, 2, 2, 5, 0, 4, 4, 4})

	const (
		maxTx    = 8
		numAddrs = 4
		numSlots = 3
	)

	f.Fuzz(func(t *testing.T, data []byte) {
		base := &fakeBase{bal: map[types.Address]uint64{}, slot: map[slotKey]uint64{}}
		for i := 0; i < numAddrs-1; i++ { // the last address is new to the base
			base.bal[addrOf(i)] = uint64(50 * (i + 1))
		}
		base.codeHash = map[types.Address]types.Hash{addrOf(0): hashOf(9)} // a contract below
		m := NewMemory(base)
		m.grow(maxTx)
		cm := newChainModel()
		valCounter := uint64(1)

		for pos := 0; pos+2 < len(data); pos += 3 {
			op, a, b := data[pos]%5, int(data[pos+1]), int(data[pos+2])
			tx := a % maxTx
			addr := b % numAddrs
			switch op {
			case 0: // write: record a new incarnation of tx
				inc := cm.inc[tx]
				withCode := b&8 != 0
				withSlot := b&16 != 0
				slot := b % numSlots

				// Read a couple of keys first, like an executor would —
				// resolutions must agree between memory and model.
				var recs []ReadRecord
				rAddr := (addr + 1) % numAddrs
				e, _, ok := m.store.ResolveAccount(addrOf(rAddr), uint64(tx))
				wtx, me := cm.resolve(readScalar, rAddr, 0, tx)
				if ok != (wtx >= 0) {
					t.Fatalf("scalar resolve divergence for addr %d before %d: mem=%v model=%v", rAddr, tx, ok, wtx >= 0)
				}
				if ok {
					if int(e.Key) != wtx || e.Inc != me.inc || e.Estimate != me.estimate || e.Val.Balance.Uint64() != me.val {
						t.Fatalf("scalar resolve mismatch: mem {tx=%d inc=%d est=%v val=%d} model {tx=%d inc=%d est=%v val=%d}",
							int(e.Key), e.Inc, e.Estimate, e.Val.Balance.Uint64(), wtx, me.inc, me.estimate, me.val)
					}
					if !e.Estimate { // an executor would suspend on an estimate
						recs = append(recs, ReadRecord{Addr: addrOf(rAddr), Kind: readScalar, Tx: int(e.Key), Inc: e.Inc})
					}
				} else {
					recs = append(recs, ReadRecord{Addr: addrOf(rAddr), Kind: readScalar, Tx: baseVersion})
				}

				// Build the change set.
				val := valCounter
				valCounter++
				ch := &state.AccountChange{}
				ch.Balance.SetUint64(val)
				if withCode {
					ch.Code, ch.CodeSet = []byte{byte(val)}, true
				}
				if withSlot {
					var sv uint256.Int
					sv.SetUint64(val + 1000)
					ch.Slots = append(ch.Slots, state.SlotChange{Slot: hashOf(slot), Val: sv})
				}
				ch.Addr = addrOf(addr)
				cs := state.NewChangeSet(*ch)

				gotNew := m.Record(tx, inc, recs, cs)

				// Model update.
				var locs []writeLoc
				locs = append(locs, writeLoc{addr: addrOf(addr), kind: readScalar})
				if withCode {
					locs = append(locs, writeLoc{addr: addrOf(addr), kind: readCode})
				}
				if withSlot {
					locs = append(locs, writeLoc{addr: addrOf(addr), slot: hashOf(slot), kind: readSlot})
				}
				wantNew := false
				for _, l := range locs {
					if !slices.Contains(cm.writes[tx], l) {
						wantNew = true
					}
				}
				if gotNew != wantNew {
					t.Fatalf("wrote-new divergence for tx %d inc %d: mem=%v model=%v", tx, inc, gotNew, wantNew)
				}
				for _, l := range cm.writes[tx] {
					if !slices.Contains(locs, l) {
						cm.removeLoc(tx, l)
					}
				}
				if m := cm.scalar[addr]; m == nil {
					cm.scalar[addr] = map[int]*modelEntry{}
				}
				cm.scalar[addr][tx] = &modelEntry{inc: inc, val: val}
				if withCode {
					if m := cm.code[addr]; m == nil {
						cm.code[addr] = map[int]*modelEntry{}
					}
					cm.code[addr][tx] = &modelEntry{inc: inc, val: val}
				} else {
					delete(cm.code[addr], tx)
				}
				if withSlot {
					k := [2]int{addr, slot}
					if m := cm.slot[k]; m == nil {
						cm.slot[k] = map[int]*modelEntry{}
					}
					cm.slot[k][tx] = &modelEntry{inc: inc, val: val + 1000}
				}
				cm.writes[tx] = locs
				cm.reads[tx] = recs
				cm.inc[tx] = inc + 1

			case 1: // validation abort: convert writes to estimates
				m.ConvertToEstimates(tx)
				for _, l := range cm.writes[tx] {
					cm.markEstimate(tx, l)
				}

			case 2: // purge (gas cut)
				m.Purge(tx)
				for _, l := range cm.writes[tx] {
					cm.removeLoc(tx, l)
				}
				cm.writes[tx] = nil
				cm.reads[tx] = nil

			case 3: // read: compare one resolution
				kind := readKind(b % 3)
				slot := (b / 4) % numSlots
				switch kind {
				case readScalar:
					e, _, ok := m.store.ResolveAccount(addrOf(addr), uint64(tx))
					wtx, me := cm.resolve(readScalar, addr, 0, tx)
					if ok != (wtx >= 0) || (ok && (int(e.Key) != wtx || e.Estimate != me.estimate || e.Val.Balance.Uint64() != me.val)) {
						t.Fatalf("scalar read divergence addr %d before %d", addr, tx)
					}
				case readCode:
					e, ok := m.store.ResolveCode(addrOf(addr), uint64(tx))
					wtx, me := cm.resolve(readCode, addr, 0, tx)
					if ok != (wtx >= 0) || (ok && (int(e.Key) != wtx || e.Estimate != me.estimate || e.Val.Code[0] != byte(me.val))) {
						t.Fatalf("code read divergence addr %d before %d", addr, tx)
					}
				default:
					e, ok := m.store.ResolveSlot(addrOf(addr), hashOf(slot), uint64(tx))
					wtx, me := cm.resolve(readSlot, addr, slot, tx)
					if ok != (wtx >= 0) || (ok && (int(e.Key) != wtx || e.Estimate != me.estimate || e.Val.Uint64() != me.val)) {
						t.Fatalf("slot read divergence addr %d slot %d before %d", addr, slot, tx)
					}
				}

			case 4: // validate a read set
				gotRead, got := m.ValidateReadSet(tx)
				wantRead, want := cm.validate(tx)
				if got != want || gotRead != wantRead {
					t.Fatalf("validation divergence for tx %d: mem=%v (stale read %+v) model=%v (%+v)", tx, got, gotRead, want, wantRead)
				}
			}
		}

		// Final sweep: every path resolution and every read set must agree.
		for addr := 0; addr < numAddrs; addr++ {
			e, _, ok := m.store.ResolveAccount(addrOf(addr), uint64(maxTx))
			wtx, me := cm.resolve(readScalar, addr, 0, maxTx)
			if ok != (wtx >= 0) || (ok && (int(e.Key) != wtx || e.Val.Balance.Uint64() != me.val)) {
				t.Fatalf("final scalar divergence addr %d", addr)
			}
		}
		for tx := 0; tx < maxTx; tx++ {
			_, got := m.ValidateReadSet(tx)
			if _, want := cm.validate(tx); got != want {
				t.Fatalf("final validation divergence tx %d", tx)
			}
		}

		// The view's account rule (state.AccountFields.Over): nonce and
		// balance of the newest scalar entry; the hash of the newest code set
		// at or below it — read through an ESTIMATE, the scalar record covers
		// it — else the base's code hash, else, for an account only the chain
		// knows, EmptyCodeHash.
		for tx := 0; tx <= maxTx; tx++ {
			for addr := 0; addr < numAddrs; addr++ {
				stx, se := cm.resolve(readScalar, addr, 0, tx)
				if stx >= 0 && se.estimate {
					continue // the view would suspend on the ESTIMATE
				}
				want, wantOK := base.Account(addrOf(addr))
				if stx >= 0 {
					if !wantOK {
						want.CodeHash = state.EmptyCodeHash
					}
					if ctx, ce := cm.resolve(readCode, addr, 0, tx); ctx >= 0 {
						want.CodeHash = types.Hash(crypto.Sum256([]byte{byte(ce.val)}))
					}
					want.Balance.SetUint64(se.val)
					wantOK = true
				}
				if got, ok := newView(m, tx).Account(addrOf(addr)); got != want || ok != wantOK {
					t.Fatalf("account divergence addr %d before %d: %+v/%v, want %+v/%v", addr, tx, got, ok, want, wantOK)
				}
			}
		}

		// Flatten: last writer wins per path, in index order.
		flat := m.Flatten()
		for addr := 0; addr < numAddrs; addr++ {
			ch := flat.Account(addrOf(addr))
			stx, se := cm.resolve(readScalar, addr, 0, maxTx)
			if (ch != nil) != (stx >= 0) {
				t.Fatalf("flatten: addr %d present=%v, model writer %d", addr, ch != nil, stx)
			}
			if ch == nil {
				continue
			}
			if ch.Balance.Uint64() != se.val {
				t.Fatalf("flatten: addr %d balance %d, model %d", addr, ch.Balance.Uint64(), se.val)
			}
			ctx, ce := cm.resolve(readCode, addr, 0, maxTx)
			if ch.CodeSet != (ctx >= 0) || (ch.CodeSet && ch.Code[0] != byte(ce.val)) {
				t.Fatalf("flatten: addr %d code %v/%x, model writer %d", addr, ch.CodeSet, ch.Code, ctx)
			}
			for slot := 0; slot < numSlots; slot++ {
				v, ok := ch.Slot(hashOf(slot))
				wtx, we := cm.resolve(readSlot, addr, slot, maxTx)
				if ok != (wtx >= 0) || (ok && v.Uint64() != we.val) {
					t.Fatalf("flatten: addr %d slot %d = %d/%v, model writer %d", addr, slot, v.Uint64(), ok, wtx)
				}
			}
		}
	})
}

func (cm *chainModel) markEstimate(tx int, l writeLoc) {
	addr := int(l.addr[0]) - 1
	switch l.kind {
	case readScalar:
		if e := cm.scalar[addr][tx]; e != nil {
			e.estimate = true
		}
	case readCode:
		if e := cm.code[addr][tx]; e != nil {
			e.estimate = true
		}
	case readSlot:
		slot := int(l.slot[0]) - 1
		if e := cm.slot[[2]int{addr, slot}][tx]; e != nil {
			e.estimate = true
		}
	}
}

func (cm *chainModel) removeLoc(tx int, l writeLoc) {
	addr := int(l.addr[0]) - 1
	switch l.kind {
	case readScalar:
		delete(cm.scalar[addr], tx)
		delete(cm.code[addr], tx) // the entry carries the code path too
	case readCode:
		delete(cm.code[addr], tx)
	case readSlot:
		delete(cm.slot[[2]int{addr, int(l.slot[0]) - 1}], tx)
	}
}
