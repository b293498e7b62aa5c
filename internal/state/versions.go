package state

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"blockpilot/internal/crypto"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Versioned is one entry of a version chain. Key is the caller's ordering
// key — the commit version under OCC-WSI, the transaction index under
// MV-STM; the store keeps chains sorted by it and never interprets it. Inc
// and Estimate are the Block-STM incarnation tag and ESTIMATE sentinel (an
// aborted incarnation's write: the key WILL be rewritten, so readers suspend
// instead of reading around it); OCC-WSI leaves both zero.
type Versioned[V any] struct {
	Key      uint64
	Inc      int
	Estimate bool
	Val      V
}

// AccountFields is the scalar part of an account write plus, for deploys,
// the code. The code path is versioned independently of the scalar path:
// ResolveCode skips entries with CodeSet false.
type AccountFields struct {
	Nonce   uint64
	Balance uint256.Int
	Code    []byte
	CodeSet bool
}

// AccountVersion and SlotVersion are the two chain entry types.
type (
	AccountVersion = Versioned[AccountFields]
	SlotVersion    = Versioned[uint256.Int]
)

type slotKey struct {
	addr types.Address
	slot types.Hash
}

// DefaultStripes is the default lock-stripe count. 64 stripes keep the whole
// touched-stripe set of one commit in a single uint64 bitmask (sorted,
// deduped acquisition for free) while giving disjoint keys a <2% chance of
// colliding on a lock even at 16 worker threads. It is also the maximum: a
// stripe set must fit one 64-bit mask.
const DefaultStripes = 64

// versionStripe is one lock stripe of the version-chain maps. codeCnt counts
// the code-setting entries per account chain so a code read on a chain
// nobody deployed to (the overwhelmingly common case — a hotspot block calls
// one contract thousands of times and deploys nothing) resolves without
// scanning the chain at all. The padding rounds the stripe to a cache line so
// neighbouring mutexes do not share one.
type versionStripe struct {
	mu       sync.RWMutex
	accounts chains[types.Address, AccountFields]
	slots    chains[slotKey, uint256.Int]
	codeCnt  map[types.Address]int
	_        [16]byte
}

// VersionStore is the striped multi-version store under both proposer
// engines: per account and per storage slot, a chain of the values written
// in this block, sorted by the writer's ordering key. A read "before k"
// returns the newest entry with key < k, so a reader pinned at one point of
// the serialization order stays consistent while later writers install.
//
// The store is split into a power-of-two number of lock stripes keyed by
// state key, so reads and writes on disjoint keys never touch the same lock.
// Single-entry operations lock their one stripe themselves; Put runs inside
// the caller's Lock(set) … Unlock(set), which is also how OCC-WSI holds its
// validate → bump → install critical section.
type VersionStore struct {
	stripes []versionStripe
	mask    uint64
}

// NewVersionStore returns an empty store with n lock stripes, clamped to
// [1, DefaultStripes] and rounded up to a power of two (n < 1 selects the
// default; n = 1 is a single-lock store).
func NewVersionStore(n int) *VersionStore {
	if n < 1 || n > DefaultStripes {
		n = DefaultStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	s := &VersionStore{stripes: make([]versionStripe, p), mask: uint64(p - 1)}
	for i := range s.stripes {
		s.stripes[i].accounts = make(chains[types.Address, AccountFields])
		s.stripes[i].slots = make(chains[slotKey, uint256.Int])
		s.stripes[i].codeCnt = make(map[types.Address]int)
	}
	return s
}

// Stripes returns the stripe count (a power of two).
func (s *VersionStore) Stripes() int { return len(s.stripes) }

// stripeHash is fnv-1a over an address, optionally mixed with a slot hash,
// finalized with a Fibonacci multiply so the low bits (the stripe index)
// depend on every input byte even for addresses that differ only in one
// position.
func (s *VersionStore) stripeHash(addr *types.Address, slot *types.Hash) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range addr {
		h = (h ^ uint64(b)) * 1099511628211
	}
	if slot != nil {
		for _, b := range slot {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	return (h * 0x9E3779B97F4A7C15) >> 32 & s.mask
}

// StripeOfKey returns the index of the stripe owning a state key: the slot's
// stripe for a storage key, the account's for everything else. Callers that
// shard their own per-key tables alongside the store (OCC-WSI's reserve
// table) index them by it and guard them with the same stripe locks.
func (s *VersionStore) StripeOfKey(k *types.StateKey) uint64 {
	if k.Kind == types.KeyStorage {
		return s.stripeHash(&k.Addr, &k.Slot)
	}
	return s.stripeHash(&k.Addr, nil)
}

// StripesOf returns the bitmask of stripes Put(…, cs) writes.
func (s *VersionStore) StripesOf(cs *ChangeSet) uint64 {
	var set uint64
	for _, ch := range cs.Accounts {
		set |= 1 << s.stripeHash(&ch.Addr, nil)
		for j := range ch.Slots {
			set |= 1 << s.stripeHash(&ch.Addr, &ch.Slots[j].Slot)
		}
	}
	return set
}

// Lock acquires every stripe in set in ascending index order — the global
// order that makes concurrent holders deadlock-free.
func (s *VersionStore) Lock(set uint64) {
	for ; set != 0; set &= set - 1 {
		s.stripes[bits.TrailingZeros64(set)].mu.Lock()
	}
}

// Unlock releases the stripes Lock(set) acquired.
func (s *VersionStore) Unlock(set uint64) {
	for ; set != 0; set &= set - 1 {
		s.stripes[bits.TrailingZeros64(set)].mu.Unlock()
	}
}

// RLock is Lock for a holder that only reads what the stripes guard (OCC-WSI's
// snapshot extension looking up the reserve table): same ascending order, so
// readers and commits stay deadlock-free against each other, and readers do not
// exclude one another.
func (s *VersionStore) RLock(set uint64) {
	for ; set != 0; set &= set - 1 {
		s.stripes[bits.TrailingZeros64(set)].mu.RLock()
	}
}

// RUnlock releases the stripes RLock(set) acquired.
func (s *VersionStore) RUnlock(set uint64) {
	for ; set != 0; set &= set - 1 {
		s.stripes[bits.TrailingZeros64(set)].mu.RUnlock()
	}
}

// chains is one stripe's share of one kind of version chain (account or
// slot), each sorted ascending by Key with one entry per key.
type chains[K comparable, V any] map[K][]Versioned[V]

// search returns the first index whose entry has Key >= before, so the
// newest entry below before is at search(…)-1. Readers are mostly pinned
// above the whole chain and writers mostly arrive in key order (always, under
// OCC-WSI), so the tail is probed before bisecting.
func search[V any](list []Versioned[V], before uint64) int {
	hi := len(list)
	if hi == 0 || list[hi-1].Key < before {
		return hi
	}
	lo := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].Key < before {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// resolve returns the newest entry of chain k with Key < before.
func (c chains[K, V]) resolve(k K, before uint64) (e Versioned[V], ok bool) {
	list := c[k]
	if i := search(list, before); i > 0 {
		return list[i-1], true
	}
	return e, false
}

// entry returns key's own entry on chain k, or nil.
func (c chains[K, V]) entry(k K, key uint64) *Versioned[V] {
	list := c[k]
	if i := search(list, key); i < len(list) && list[i].Key == key {
		return &list[i]
	}
	return nil
}

// upsert installs e on chain k, replacing e.Key's existing entry (a
// re-execution) or inserting sorted. It returns the replaced value (zero if
// none).
func (c chains[K, V]) upsert(k K, e Versioned[V]) (old V) {
	list := c[k]
	i := search(list, e.Key)
	if i < len(list) && list[i].Key == e.Key {
		old, list[i] = list[i].Val, e
		return old
	}
	list = append(list, e)
	copy(list[i+1:], list[i:])
	list[i] = e
	c[k] = list
	return old
}

// remove deletes key's entry from chain k and returns its value; ok=false if
// there was none. An emptied chain is dropped: Flatten reads every chain's
// tail.
func (c chains[K, V]) remove(k K, key uint64) (old V, ok bool) {
	list := c[k]
	i := search(list, key)
	if i == len(list) || list[i].Key != key {
		return old, false
	}
	old = list[i].Val
	if list = append(list[:i], list[i+1:]...); len(list) > 0 {
		c[k] = list
	} else {
		delete(c, k)
	}
	return old, true
}

// ResolveAccount returns the newest scalar entry with key < before
// (ok=false: no such entry, read the base) and, from the same look under the
// same lock, the newest code-setting entry at or below it: the entry itself
// when it set code, CodeSet false when nobody in this block has. Every
// code-setting entry is a scalar entry too, so that is ResolveCode(before)'s
// answer as of this call — a view that serves an account's code hash and its
// code from one such pair can never report a hash that is not the code's
// (AccountFields.Over), whatever is re-recorded in between. The caller checks
// Estimate on whichever entry it serves from.
func (s *VersionStore) ResolveAccount(addr types.Address, before uint64) (e, code AccountVersion, ok bool) {
	st := &s.stripes[s.stripeHash(&addr, nil)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	if e, ok = st.accounts.resolve(addr, before); ok {
		code, _ = st.resolveCode(addr, e.Key+1)
	}
	return e, code, ok
}

// ResolveCode returns the newest code-setting entry with key < before.
// Entries that did not set code are skipped even when they are ESTIMATEs:
// the code path is versioned independently, and a re-execution that newly
// deploys code counts as writing a new path, which revalidates every higher
// transaction (mv.Scheduler.FinishExecution).
func (s *VersionStore) ResolveCode(addr types.Address, before uint64) (AccountVersion, bool) {
	st := &s.stripes[s.stripeHash(&addr, nil)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.resolveCode(addr, before)
}

func (st *versionStripe) resolveCode(addr types.Address, before uint64) (AccountVersion, bool) {
	if st.codeCnt[addr] == 0 {
		return AccountVersion{}, false
	}
	list := st.accounts[addr]
	for i := search(list, before) - 1; i >= 0; i-- {
		if list[i].Val.CodeSet {
			return list[i], true
		}
	}
	return AccountVersion{}, false
}

// ResolveSlot returns the newest entry of one storage slot with key < before.
func (s *VersionStore) ResolveSlot(addr types.Address, slot types.Hash, before uint64) (SlotVersion, bool) {
	st := &s.stripes[s.stripeHash(&addr, &slot)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.slots.resolve(slotKey{addr: addr, slot: slot}, before)
}

// Over is the account a ResolveAccount pair — f the scalar entry, code the
// code-setting entry at or below it — describes on top of base, the rule every
// view over a VersionStore promises: the entry's own nonce and balance; the
// hash of the code set in this block, else the base's code hash, else — an
// account created in this block, the base has never heard of it —
// EmptyCodeHash. The chain carries no code hashes (AccountChange has none to
// give), so an entry without in-block code costs the base one Account lookup:
// what the reader would have paid had nobody written the account, once per
// (overlay, account) because overlays and views cache the answer.
func (f *AccountFields) Over(code *AccountFields, base Reader, addr types.Address) Account {
	acct := Account{Nonce: f.Nonce, Balance: f.Balance, CodeHash: EmptyCodeHash}
	if code.CodeSet {
		acct.CodeHash = types.Hash(crypto.Sum256(code.Code))
	} else if below, ok := base.Account(addr); ok {
		acct.CodeHash = below.CodeHash
	}
	return acct
}

// Put installs cs as the writes of ordering key `key` (incarnation inc): one
// account entry per changed account, one slot entry per dirty slot, each
// replacing the key's previous entry on that chain if there is one. The
// caller holds every stripe of StripesOf(cs), so the whole change set appears
// to readers at once.
func (s *VersionStore) Put(key uint64, inc int, cs *ChangeSet) {
	for _, ch := range cs.Accounts {
		e := AccountVersion{Key: key, Inc: inc, Val: AccountFields{Nonce: ch.Nonce, Balance: ch.Balance}}
		if ch.CodeSet {
			e.Val.Code, e.Val.CodeSet = ch.Code, true
		}
		st := &s.stripes[s.stripeHash(&ch.Addr, nil)]
		st.addCode(ch.Addr, e.Val.CodeSet, st.accounts.upsert(ch.Addr, e).CodeSet)
		for _, sc := range ch.Slots {
			ss := &s.stripes[s.stripeHash(&ch.Addr, &sc.Slot)]
			ss.slots.upsert(slotKey{addr: ch.Addr, slot: sc.Slot}, SlotVersion{Key: key, Inc: inc, Val: sc.Val})
		}
	}
}

// addCode keeps codeCnt[addr] equal to the number of code-setting entries on
// addr's chain when one entry's CodeSet goes from was to now.
func (st *versionStripe) addCode(addr types.Address, now, was bool) {
	switch {
	case now && !was:
		st.codeCnt[addr]++
	case was && !now:
		if st.codeCnt[addr]--; st.codeCnt[addr] == 0 {
			delete(st.codeCnt, addr)
		}
	}
}

// Remove deletes key's entry from the chain of one account (scalar and code
// paths both: they share the entry) or one storage slot. A missing entry is a
// no-op.
func (s *VersionStore) Remove(k types.StateKey, key uint64) {
	st := &s.stripes[s.StripeOfKey(&k)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if k.Kind == types.KeyStorage {
		st.slots.remove(slotKey{addr: k.Addr, slot: k.Slot}, key)
	} else if old, ok := st.accounts.remove(k.Addr, key); ok {
		st.addCode(k.Addr, false, old.CodeSet)
	}
}

// MarkEstimate flips key's entry on the chain of one account or one storage
// slot to an ESTIMATE.
func (s *VersionStore) MarkEstimate(k types.StateKey, key uint64) {
	st := &s.stripes[s.StripeOfKey(&k)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if k.Kind == types.KeyStorage {
		if e := st.slots.entry(slotKey{addr: k.Addr, slot: k.Slot}, key); e != nil {
			e.Estimate = true
		}
	} else if e := st.accounts.entry(k.Addr, key); e != nil {
		e.Estimate = true
	}
}

// Flatten returns the merged change set of every entry in the store,
// equivalent to folding every installed change set in key order (last writer
// wins per field), in sorted form. The caller must be done writing (proposer
// finalization); Flatten reconstructs the set from the chains so the write hot
// path carries no running-merge bookkeeping at all.
func (s *VersionStore) Flatten() *ChangeSet {
	type flatSlot struct {
		addr types.Address
		SlotChange
	}
	n, m := 0, 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		n, m = n+len(st.accounts), m+len(st.slots)
		st.mu.RUnlock()
	}
	cs := &ChangeSet{Accounts: make([]AccountChange, 0, n+1)} // room for the finalization credit
	slots := make([]flatSlot, 0, m)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for addr, list := range st.accounts {
			last := list[len(list)-1].Val
			c := AccountChange{Addr: addr, Nonce: last.Nonce, Balance: last.Balance}
			for j := len(list) - 1; j >= 0; j-- {
				if list[j].Val.CodeSet {
					c.Code, c.CodeSet = list[j].Val.Code, true
					break
				}
			}
			cs.Accounts = append(cs.Accounts, c)
		}
		for sk, list := range st.slots {
			slots = append(slots, flatSlot{sk.addr, SlotChange{Slot: sk.slot, Val: list[len(list)-1].Val}})
		}
		st.mu.RUnlock()
	}
	sort.Slice(cs.Accounts, func(i, j int) bool { return compareAddr(&cs.Accounts[i].Addr, &cs.Accounts[j].Addr) < 0 })
	slices.SortFunc(slots, func(a, b flatSlot) int {
		return cmp.Or(compareAddr(&a.addr, &b.addr), compareSlot(a.SlotChange, b.SlotChange))
	})
	all := make([]SlotChange, len(slots))
	for i := 0; i < len(slots); {
		start, addr := i, slots[i].addr
		for ; i < len(slots) && slots[i].addr == addr; i++ {
			all[i] = slots[i].SlotChange
		}
		j, ok := cs.search(addr)
		if !ok { // defensive: a slot without a scalar entry
			cs.Accounts = slices.Insert(cs.Accounts, j, AccountChange{Addr: addr})
		}
		cs.Accounts[j].Slots = all[start:i:i]
	}
	return cs
}
