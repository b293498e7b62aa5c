package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// refStore is the naive reference for VersionStore: per path an unsorted
// list of entries, every query a linear scan.
type refStore map[slotKey][]refEntry // slot == zero hash: the account path

type refEntry struct {
	key      uint64
	inc      int
	estimate bool
	acct     AccountFields
	val      uint256.Int
}

func (r refStore) put(key uint64, inc int, cs *ChangeSet) {
	set := func(k slotKey, e refEntry) {
		for i := range r[k] {
			if r[k][i].key == key {
				r[k][i] = e
				return
			}
		}
		r[k] = append(r[k], e)
	}
	for _, ch := range cs.Accounts {
		set(slotKey{addr: ch.Addr}, refEntry{key: key, inc: inc,
			acct: AccountFields{Nonce: ch.Nonce, Balance: ch.Balance, Code: ch.Code, CodeSet: ch.CodeSet}})
		for _, s := range ch.Slots {
			set(slotKey{addr: ch.Addr, slot: s.Slot}, refEntry{key: key, inc: inc, val: s.Val})
		}
	}
}

func (r refStore) at(k slotKey, key uint64) *refEntry {
	for i := range r[k] {
		if r[k][i].key == key {
			return &r[k][i]
		}
	}
	return nil
}

func (r refStore) remove(k slotKey, key uint64) {
	for i := range r[k] {
		if r[k][i].key == key {
			r[k] = append(r[k][:i], r[k][i+1:]...)
			return
		}
	}
}

// resolve returns the entry with the largest key < before (codeOnly: among
// code-setting entries).
func (r refStore) resolve(k slotKey, before uint64, codeOnly bool) (best refEntry, ok bool) {
	for _, e := range r[k] {
		if e.key < before && (!codeOnly || e.acct.CodeSet) && (!ok || e.key > best.key) {
			best, ok = e, true
		}
	}
	return best, ok
}

func (r refStore) flatten() *ChangeSet {
	accts := map[types.Address]*AccountChange{}
	for k := range r {
		if k.slot != (types.Hash{}) || len(r[k]) == 0 {
			continue
		}
		last, _ := r.resolve(k, ^uint64(0), false)
		c := &AccountChange{Addr: k.addr, Nonce: last.acct.Nonce, Balance: last.acct.Balance}
		if code, ok := r.resolve(k, ^uint64(0), true); ok {
			c.Code, c.CodeSet = code.acct.Code, true
		}
		accts[k.addr] = c
	}
	for k := range r {
		if last, ok := r.resolve(k, ^uint64(0), false); ok && k.slot != (types.Hash{}) {
			accts[k.addr].Slots = append(accts[k.addr].Slots, SlotChange{Slot: k.slot, Val: last.val})
		}
	}
	var list []AccountChange
	for _, c := range accts {
		list = append(list, *c)
	}
	return NewChangeSet(list...)
}

func describe(cs *ChangeSet) string {
	var lines []string
	for _, c := range cs.Accounts {
		line := fmt.Sprintf("%x n=%d b=%s code=%v/%x", c.Addr[:2], c.Nonce, c.Balance.String(), c.CodeSet, c.Code)
		var slots []string
		for _, s := range c.Slots {
			slots = append(slots, fmt.Sprintf(" %x=%s", s.Slot[:1], s.Val.String()))
		}
		sort.Strings(slots)
		lines = append(lines, line+fmt.Sprint(slots))
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}

const (
	vsAddrs = 6 // addresses 0..2 exist in the base, 3..5 are created in-block
	vsSlots = 3
)

func vsAddr(i int) types.Address { return types.Address{0: byte(i + 1), 19: 0xA0} }
func vsSlot(i int) types.Hash    { return types.Hash{0: byte(i + 1)} }

// vsBase is the base state under the store: a contract, two EOAs, and four
// addresses it has never heard of.
func vsBase() *Memory {
	m := NewMemory(nil)
	m.SetCode(vsAddr(0), []byte{0xC0, 0xDE})
	m.SetNonce(vsAddr(1), 1)
	m.SetNonce(vsAddr(2), 1)
	return m
}

// randomWrites builds one transaction's change set over the small key space.
func randomWrites(rng *rand.Rand, tag uint64) *ChangeSet {
	var accts []AccountChange
	for n := 1 + rng.Intn(2); n > 0; n-- {
		ch := AccountChange{Nonce: tag, Balance: *uint256.NewInt(tag * 10)}
		if rng.Intn(4) == 0 {
			ch.Code, ch.CodeSet = []byte{byte(tag), 0x60}, true
		}
		for s := rng.Intn(3); s > 0; s-- {
			ch.Slots = append(ch.Slots, SlotChange{Slot: vsSlot(rng.Intn(vsSlots)), Val: *uint256.NewInt(tag*100 + uint64(s))})
		}
		ch.Addr = vsAddr(rng.Intn(vsAddrs))
		if len(accts) > 0 && accts[0].Addr == ch.Addr {
			accts[0] = ch // the second write of an account replaces the first
		} else {
			accts = append(accts, ch)
		}
	}
	return NewChangeSet(accts...)
}

// checkAgainst compares every path resolution before every key in [0, max],
// the AccountFields.Over rule on top of them, and Flatten.
func checkAgainst(t *testing.T, s *VersionStore, ref refStore, max uint64) {
	t.Helper()
	base := vsBase()
	for before := uint64(0); before <= max; before++ {
		for a := 0; a < vsAddrs; a++ {
			addr := vsAddr(a)
			got, gotCode, ok := s.ResolveAccount(addr, before)
			want, wok := ref.resolve(slotKey{addr: addr}, before, false)
			if ok != wok || ok && (got.Key != want.key || got.Inc != want.inc || got.Estimate != want.estimate ||
				got.Val.Nonce != want.acct.Nonce || !got.Val.Balance.Eq(&want.acct.Balance)) {
				t.Fatalf("account %d before %d: store %+v/%v, reference %+v/%v", a, before, got, ok, want, wok)
			}
			code, cok := s.ResolveCode(addr, before)
			wcode, wcok := ref.resolve(slotKey{addr: addr}, before, true)
			if cok != wcok || cok && (code.Key != wcode.key || code.Estimate != wcode.estimate || !bytes.Equal(code.Val.Code, wcode.acct.Code)) {
				t.Fatalf("code %d before %d: store %+v/%v, reference %+v/%v", a, before, code, cok, wcode, wcok)
			}
			// The code entry ResolveAccount hands out beside the scalar entry
			// is ResolveCode's answer, or unset.
			if gotCode.Val.CodeSet != cok || cok && (gotCode.Key != code.Key || gotCode.Inc != code.Inc ||
				gotCode.Estimate != code.Estimate || !bytes.Equal(gotCode.Val.Code, code.Val.Code)) {
				t.Fatalf("account %d before %d carries code %+v, ResolveCode says %+v/%v", a, before, gotCode, code, cok)
			}
			// The rule both engine views promise (AccountFields.Over): the
			// entry's nonce and balance; in-block code at or below the entry
			// hashes to itself, an account created in-block without code
			// reports EmptyCodeHash, everything else is the base's answer.
			if ok {
				wantAcct := Account{Nonce: want.acct.Nonce, Balance: want.acct.Balance, CodeHash: EmptyCodeHash}
				if below, inBase := base.Account(addr); wcok {
					wantAcct.CodeHash = types.Hash(crypto.Sum256(wcode.acct.Code))
				} else if inBase {
					wantAcct.CodeHash = below.CodeHash
				}
				if acct := got.Val.Over(&gotCode.Val, base, addr); acct != wantAcct {
					t.Fatalf("account %d before %d: %+v, want %+v", a, before, acct, wantAcct)
				}
			}
			for sl := 0; sl < vsSlots; sl++ {
				gs, sok := s.ResolveSlot(addr, vsSlot(sl), before)
				ws, wsok := ref.resolve(slotKey{addr: addr, slot: vsSlot(sl)}, before, false)
				if sok != wsok || sok && (gs.Key != ws.key || gs.Inc != ws.inc || gs.Estimate != ws.estimate || !gs.Val.Eq(&ws.val)) {
					t.Fatalf("slot %d/%d before %d: store %+v/%v, reference %+v/%v", a, sl, before, gs, sok, ws, wsok)
				}
			}
		}
	}
	if got, want := describe(s.Flatten()), describe(ref.flatten()); got != want {
		t.Fatalf("Flatten diverges:\n store     %s\n reference %s", got, want)
	}
}

// vsKeys is every state key of the small key space: each address's account
// key, then its slot keys.
func vsKeys() []types.StateKey {
	var keys []types.StateKey
	for a := 0; a < vsAddrs; a++ {
		keys = append(keys, types.AccountKey(vsAddr(a)))
		for sl := 0; sl < vsSlots; sl++ {
			keys = append(keys, types.StorageKey(vsAddr(a), vsSlot(sl)))
		}
	}
	return keys
}

// TestVersionStoreAgainstReference drives the one store through the scripts of
// its two callers. OCC shape (core's OCC-WSI): Commit with one read at a random
// earlier version beside the change set's writes — it must abort exactly when
// a later commit reserved the read key, naming that key and version, and
// otherwise install at the next version — then chains, reserve table
// (WrittenSince) and Flatten against the reference, at 1, 4 and 64 stripes.
// MV shape (mv.Memory): writers arrive out of index order, a re-execution
// replaces its entries and removes the locations it no longer writes, aborted
// incarnations become ESTIMATEs, and the tail of the block is purged highest
// index first.
func TestVersionStoreAgainstReference(t *testing.T) {
	keys := vsKeys()
	for _, stripes := range []int{1, 4, defaultStripes} {
		t.Run(fmt.Sprintf("occ-shape/stripes=%d", stripes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(stripes)))
			s, ref := NewVersionStore(stripes), refStore{}
			if len(s.stripes) != stripes {
				t.Fatalf("%d stripes, want %d", len(s.stripes), stripes)
			}
			reserved := map[types.StateKey]uint64{} // the reference reserve table
			const commits = 40
			aborts := 0
			for v := uint64(1); v <= commits; {
				cs := randomWrites(rng, v)
				access := types.NewAccessSet()
				read, at := keys[rng.Intn(len(keys))], rng.Uint64()%v
				access.NoteRead(read, at)
				for _, ch := range cs.Accounts {
					access.NoteWrite(types.AccountKey(ch.Addr))
					for _, sc := range ch.Slots {
						access.NoteWrite(types.StorageKey(ch.Addr, sc.Slot))
					}
				}
				got, stale, winner, ok := s.Commit(access, cs)
				if w := reserved[read]; w > at {
					if ok || stale != read || winner != w {
						t.Fatalf("read of %s at %d (reserved at %d): Commit = %d, %s, %d, %v; want an abort on it", read, at, w, got, stale, winner, ok)
					}
					aborts++
					continue
				}
				if !ok || got != v || s.Latest() != v {
					t.Fatalf("clean commit %d: Commit = %d, %v, Latest %d", v, got, ok, s.Latest())
				}
				ref.put(v, 0, cs)
				for k := range access.Writes {
					reserved[k] = v
				}
				v++
			}
			if aborts == 0 {
				t.Fatal("no commit aborted: the script no longer exercises validation")
			}
			checkAgainst(t, s, ref, commits+1)
			for v := uint64(1); v <= commits+1; v++ {
				some := false
				for _, k := range keys {
					want := reserved[k] >= v
					if got := s.WrittenSince(v, k); got != want {
						t.Fatalf("WrittenSince(%d, %s) = %v, reserved at %d", v, k, got, reserved[k])
					}
					some = some || want
				}
				if got := s.WrittenSince(v, keys...); got != some {
					t.Fatalf("WrittenSince(%d, every key) = %v, want %v", v, got, some)
				}
			}
		})
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("mv-shape/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s, ref := NewVersionStore(0), refStore{}
			const txs = 24
			writes := make([]*ChangeSet, txs)

			// record installs tx's incarnation and drops what the previous
			// one wrote and this one did not (mv.Memory.Record).
			record := func(tx uint64, inc int, cs *ChangeSet) {
				s.Put(tx, inc, cs)
				ref.put(tx, inc, cs)
				if prev := writes[tx]; prev != nil {
					for _, ch := range prev.Accounts {
						addr := ch.Addr
						now := cs.Account(addr)
						if now == nil {
							now = &AccountChange{}
							s.Remove(types.AccountKey(addr), tx)
							ref.remove(slotKey{addr: addr}, tx)
						}
						for _, sc := range ch.Slots {
							slot := sc.Slot
							if _, ok := now.Slot(slot); !ok {
								s.Remove(types.StorageKey(addr, slot), tx)
								ref.remove(slotKey{addr: addr, slot: slot}, tx)
							}
						}
					}
				}
				writes[tx] = cs
			}
			for _, tx := range rng.Perm(txs) {
				record(uint64(tx), 0, randomWrites(rng, uint64(tx+1)))
			}
			checkAgainst(t, s, ref, txs)

			// Abort a third of them, then re-execute half of those with a
			// fresh (often smaller or different) write set.
			for _, tx := range rng.Perm(txs)[:txs/3] {
				for _, ch := range writes[tx].Accounts {
					s.MarkEstimate(types.AccountKey(ch.Addr), uint64(tx))
					ref.at(slotKey{addr: ch.Addr}, uint64(tx)).estimate = true
					for _, sc := range ch.Slots {
						s.MarkEstimate(types.StorageKey(ch.Addr, sc.Slot), uint64(tx))
						ref.at(slotKey{addr: ch.Addr, slot: sc.Slot}, uint64(tx)).estimate = true
					}
				}
				if rng.Intn(2) == 0 {
					record(uint64(tx), 1, randomWrites(rng, uint64(tx+1)))
				}
			}
			checkAgainst(t, s, ref, txs)

			// Gas-limit cut: purge the tail, highest index first.
			for tx := txs - 1; tx >= txs/2; tx-- {
				record(uint64(tx), 2, NewChangeSet())
			}
			checkAgainst(t, s, ref, txs)
		})
	}
}
