// Package core implements BlockPilot's primary contribution for the
// proposing context: the OCC-WSI engine (paper Algorithm 1). Worker threads
// speculatively execute pending transactions against versioned snapshots of
// a multi-version state; a reserve table maps every state key to the version
// of its last committed write; commit validation aborts any transaction
// whose read set has been overwritten since its snapshot (Write Snapshot
// Isolation), pushing it back into the pending pool. Committed transactions
// are appended to the block in commit order together with their read/write
// sets (the block profile).
package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/crypto"
	"blockpilot/internal/flight"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// accountVersion is one committed value of an account's scalar fields.
type accountVersion struct {
	version types.Version
	nonce   uint64
	balance uint256.Int
	code    []byte
	codeSet bool
	exists  bool
}

// slotEntry is one committed value of a storage slot.
type slotEntry struct {
	version types.Version
	value   uint256.Int
}

type slotKey struct {
	addr types.Address
	slot types.Hash
}

// DefaultStripes is the default MVState lock-stripe count. 64 stripes keep
// the whole touched-stripe set of one commit in a single uint64 bitmask
// (sorted, deduped acquisition for free) while giving disjoint keys a <2%
// chance of colliding on a lock even at 16 worker threads.
const DefaultStripes = 64

// maxStripes bounds the stripe count so a commit's stripe set always fits
// one 64-bit mask.
const maxStripes = 64

// mvStripe is one lock stripe: a slice of the multi-version maps plus the
// reserve-table shard for every state key that hashes here. The padding
// keeps neighbouring stripes' mutexes off each other's cache lines.
type mvStripe struct {
	mu       sync.RWMutex
	accounts map[types.Address][]accountVersion
	slots    map[slotKey][]slotEntry
	reserve  map[types.StateKey]types.Version // Alg. 1's Table (shard)
	_        [24]byte
}

// MVState is the proposer's shared multi-version state: the parent snapshot
// plus, per key, the append-only list of committed versions. Reads at
// snapshot version v return the newest value with version ≤ v, so a worker's
// view stays consistent while other workers commit (paper's
// "snapshot(thread, version) ← State(version)").
//
// The state is split into a power-of-two number of lock stripes keyed by
// state key, so View reads and DetectConflict checks on disjoint keys never
// touch the same lock. The global commit counter is a single atomic;
// TryCommit stays linearizable by holding every stripe its access set
// touches (acquired in ascending index order) across the validate → bump →
// install sequence. Within one stripe, installation order therefore equals
// version order, and a reader that pins version v and then acquires a
// stripe lock is guaranteed to see every commit ≤ v fully installed
// (commits release their stripes only after installing).
type MVState struct {
	base    *state.Snapshot
	stripes []mvStripe
	mask    uint64
	version atomic.Uint64 // latest committed version
}

// NewMVState wraps a committed parent snapshot with the default stripe count.
func NewMVState(base *state.Snapshot) *MVState {
	return NewMVStateStripes(base, DefaultStripes)
}

// NewMVStateStripes wraps a parent snapshot with an explicit stripe count
// (the stripe-torture test runs 1, 4 and 64). n is clamped to [1, 64] and
// rounded up to a power of two; n = 1 is a single-lock MVState.
func NewMVStateStripes(base *state.Snapshot, n int) *MVState {
	if n < 1 {
		n = DefaultStripes
	}
	if n > maxStripes {
		n = maxStripes
	}
	// Round up to a power of two.
	p := 1
	for p < n {
		p <<= 1
	}
	mv := &MVState{base: base, stripes: make([]mvStripe, p), mask: uint64(p - 1)}
	for i := range mv.stripes {
		mv.stripes[i] = mvStripe{
			accounts: make(map[types.Address][]accountVersion),
			slots:    make(map[slotKey][]slotEntry),
			reserve:  make(map[types.StateKey]types.Version),
		}
	}
	return mv
}

// Stripes returns the stripe count (a power of two).
func (mv *MVState) Stripes() int { return len(mv.stripes) }

// fnv-1a over an address, optionally mixed with a slot hash. Finalized with
// a Fibonacci multiply so the low bits (the stripe index) depend on every
// input byte even for addresses that differ only in one position.
func stripeHashAddr(addr *types.Address) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range addr {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func stripeHashSlot(h uint64, slot *types.Hash) uint64 {
	for _, b := range slot {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

func finalizeStripe(h, mask uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> 32 & mask
}

// stripeOfAccount returns the stripe index owning addr's account fields (and
// its account-level reserve key).
func (mv *MVState) stripeOfAccount(addr *types.Address) uint64 {
	return finalizeStripe(stripeHashAddr(addr), mv.mask)
}

// stripeOfSlot returns the stripe index owning one storage slot (and its
// slot-level reserve key).
func (mv *MVState) stripeOfSlot(addr *types.Address, slot *types.Hash) uint64 {
	return finalizeStripe(stripeHashSlot(stripeHashAddr(addr), slot), mv.mask)
}

// stripeOfKey maps a reserve-table key to its stripe.
func (mv *MVState) stripeOfKey(k *types.StateKey) uint64 {
	if k.Kind == types.KeyStorage {
		return mv.stripeOfSlot(&k.Addr, &k.Slot)
	}
	return mv.stripeOfAccount(&k.Addr)
}

// Version returns the latest committed version (0 = parent state only).
func (mv *MVState) Version() types.Version {
	return mv.version.Load()
}

// View returns a state.Reader pinned at snapshot version v.
func (mv *MVState) View(v types.Version) state.Reader {
	return &mvView{mv: mv, at: v}
}

// commitStripes computes the bitmask of stripes a commit must hold: every
// stripe owning a read key (reserve validation), a write key (reserve
// update), or a change-set entry (version installation). The write set does
// not always cover the change set: the granularity ablation (CoarsenAccessSet)
// coarsens access-set keys to whole accounts while the change set stays
// slot-granular.
func (mv *MVState) commitStripes(access *types.AccessSet, cs *state.ChangeSet) uint64 {
	var set uint64
	for key := range access.Reads {
		k := key
		set |= 1 << mv.stripeOfKey(&k)
	}
	for key := range access.Writes {
		k := key
		set |= 1 << mv.stripeOfKey(&k)
	}
	for addr, ch := range cs.Accounts {
		a := addr
		set |= 1 << mv.stripeOfAccount(&a)
		for slot := range ch.Storage {
			s := slot
			set |= 1 << mv.stripeOfSlot(&a, &s)
		}
	}
	return set
}

// lockStripes acquires every stripe in set in ascending index order (the
// global order that makes concurrent commits deadlock-free).
func (mv *MVState) lockStripes(set uint64) {
	for s := set; s != 0; s &= s - 1 {
		mv.stripes[bits.TrailingZeros64(s)].mu.Lock()
	}
}

func (mv *MVState) unlockStripes(set uint64) {
	for s := set; s != 0; s &= s - 1 {
		mv.stripes[bits.TrailingZeros64(s)].mu.Unlock()
	}
}

// CommitConflict describes why a TryCommitEx attempt aborted: the stale read
// key, the committed version that overwrote it (the "winner"), and the
// MVState stripe the key hashes to. It feeds the flight recorder's conflict
// attribution; a zero value means no conflict.
type CommitConflict struct {
	Key    types.StateKey
	Winner types.Version
	Stripe int
}

// TryCommit implements Algorithm 1's DetectConflict + commit: it validates
// the access set against the reserve table and, when clean, installs the
// write set as the next version and updates the reserve table. It returns
// the assigned version (the transaction's sequence in the block) and
// whether the commit succeeded.
func (mv *MVState) TryCommit(access *types.AccessSet, cs *state.ChangeSet) (types.Version, bool) {
	v, _, ok := mv.TryCommitEx(access, cs)
	return v, ok
}

// TryCommitEx is TryCommit plus conflict attribution: on abort it reports
// which read key was stale, the reserve-table version that beat it, and the
// stripe that key lives on.
//
// Only the stripes the transaction's access set and change set touch are
// locked; commits on disjoint stripe sets proceed fully in parallel.
func (mv *MVState) TryCommitEx(access *types.AccessSet, cs *state.ChangeSet) (types.Version, CommitConflict, bool) {
	set := mv.commitStripes(access, cs)
	if telemetry.Enabled() || flight.Enabled() {
		start := time.Now()
		mv.lockStripes(set)
		wait := time.Since(start)
		telemetry.ProposerStripeWaitNs.ObserveDuration(wait)
		flight.StripeWait(set, wait)
	} else {
		mv.lockStripes(set)
	}
	defer mv.unlockStripes(set)

	for key, readVersion := range access.Reads {
		k := key
		stripe := mv.stripeOfKey(&k)
		if winner := mv.stripes[stripe].reserve[key]; winner > readVersion {
			// Stale read: the reserve-table check (the CAS of Alg. 1's
			// DetectConflict) failed — abort back to the pool.
			telemetry.ProposerReserveConflicts.Inc()
			return 0, CommitConflict{Key: key, Winner: winner, Stripe: int(stripe)}, false
		}
	}
	// The version bump happens while every touched stripe is held, so for
	// any stripe shared by two commits the bump order equals the stripe
	// critical-section order: per-stripe version lists stay sorted.
	v := mv.version.Add(1)
	for addr, ch := range cs.Accounts {
		a := addr
		av := accountVersion{
			version: v,
			nonce:   ch.Nonce,
			balance: ch.Balance,
			exists:  true,
		}
		if ch.CodeSet {
			av.code, av.codeSet = ch.Code, true
		}
		st := &mv.stripes[mv.stripeOfAccount(&a)]
		st.accounts[addr] = append(st.accounts[addr], av)
		for slot, val := range ch.Storage {
			sl := slot
			ss := &mv.stripes[mv.stripeOfSlot(&a, &sl)]
			k := slotKey{addr: addr, slot: slot}
			ss.slots[k] = append(ss.slots[k], slotEntry{version: v, value: val})
		}
	}
	// Reserve every recorded write key — including writes whose final value
	// equals the base (conservative, and deterministic across replays).
	for key := range access.Writes {
		k := key
		mv.stripes[mv.stripeOfKey(&k)].reserve[key] = v
	}
	return v, CommitConflict{}, true
}

// Flatten returns the merged change set of all commits so far, equivalent to
// merging every committed change set in version order (last writer wins per
// key). The caller must be done committing (proposer finalization); Flatten
// reconstructs the set from the per-stripe version lists so the commit hot
// path carries no running-merge bookkeeping at all.
func (mv *MVState) Flatten() *state.ChangeSet {
	cs := state.NewChangeSet()
	// Pass 1: account scalar fields. Every change-set entry installed an
	// accountVersion, so this pass discovers every changed account.
	for i := range mv.stripes {
		st := &mv.stripes[i]
		st.mu.RLock()
		for addr, list := range st.accounts {
			last := list[len(list)-1]
			c := &state.AccountChange{
				Nonce:   last.nonce,
				Balance: last.balance,
				Storage: make(map[types.Hash]uint256.Int),
			}
			for j := len(list) - 1; j >= 0; j-- {
				if list[j].codeSet {
					c.Code, c.CodeSet = list[j].code, true
					break
				}
			}
			cs.Accounts[addr] = c
		}
		st.mu.RUnlock()
	}
	// Pass 2: storage slots (their owning account's scalar entry always
	// exists after pass 1 — TryCommit installs slots only via cs.Accounts).
	for i := range mv.stripes {
		st := &mv.stripes[i]
		st.mu.RLock()
		for sk, list := range st.slots {
			c := cs.Accounts[sk.addr]
			if c == nil { // defensive: a slot without a scalar entry
				c = &state.AccountChange{Storage: make(map[types.Hash]uint256.Int)}
				cs.Accounts[sk.addr] = c
			}
			c.Storage[sk.slot] = list[len(list)-1].value
		}
		st.mu.RUnlock()
	}
	return cs
}

// Latest returns a Reader over the newest committed version (finalization).
func (mv *MVState) Latest() state.Reader {
	return &mvView{mv: mv, at: ^types.Version(0)}
}

// mvView is a read-only view of MVState at one snapshot version.
type mvView struct {
	mv *MVState
	at types.Version
}

// lookupAccount returns the newest account version ≤ at, or nil. The
// caller must hold the account's stripe lock.
func lookupAccount(list []accountVersion, at types.Version) *accountVersion {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].version <= at {
			return &list[i]
		}
	}
	return nil
}

// accountStripe locks and returns addr's stripe (read side).
func (v *mvView) accountStripe(addr *types.Address) *mvStripe {
	st := &v.mv.stripes[v.mv.stripeOfAccount(addr)]
	st.mu.RLock()
	return st
}

// Nonce implements state.Reader.
func (v *mvView) Nonce(addr types.Address) uint64 {
	st := v.accountStripe(&addr)
	if a := lookupAccount(st.accounts[addr], v.at); a != nil {
		n := a.nonce
		st.mu.RUnlock()
		return n
	}
	st.mu.RUnlock()
	return v.mv.base.Nonce(addr)
}

// Balance implements state.Reader.
func (v *mvView) Balance(addr types.Address) uint256.Int {
	st := v.accountStripe(&addr)
	if a := lookupAccount(st.accounts[addr], v.at); a != nil {
		b := a.balance
		st.mu.RUnlock()
		return b
	}
	st.mu.RUnlock()
	return v.mv.base.Balance(addr)
}

// Code implements state.Reader. Committed versions rarely carry code (no
// deploys in flight): fall through unless one explicitly set it.
func (v *mvView) Code(addr types.Address) []byte {
	st := v.accountStripe(&addr)
	list := st.accounts[addr]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].version <= v.at && list[i].codeSet {
			c := list[i].code
			st.mu.RUnlock()
			return c
		}
	}
	st.mu.RUnlock()
	return v.mv.base.Code(addr)
}

// CodeHash implements state.Reader.
func (v *mvView) CodeHash(addr types.Address) types.Hash {
	st := v.accountStripe(&addr)
	list := st.accounts[addr]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].version <= v.at && list[i].codeSet {
			h := types.Hash(crypto.Sum256(list[i].code))
			st.mu.RUnlock()
			return h
		}
	}
	found := lookupAccount(list, v.at) != nil
	st.mu.RUnlock()
	if found {
		if h := v.mv.base.CodeHash(addr); h != (types.Hash{}) {
			return h
		}
		return state.EmptyCodeHash
	}
	return v.mv.base.CodeHash(addr)
}

// Storage implements state.Reader.
func (v *mvView) Storage(addr types.Address, slot types.Hash) uint256.Int {
	st := &v.mv.stripes[v.mv.stripeOfSlot(&addr, &slot)]
	st.mu.RLock()
	list := st.slots[slotKey{addr: addr, slot: slot}]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].version <= v.at {
			val := list[i].value
			st.mu.RUnlock()
			return val
		}
	}
	st.mu.RUnlock()
	return v.mv.base.Storage(addr, slot)
}

// Exists implements state.Reader.
func (v *mvView) Exists(addr types.Address) bool {
	st := v.accountStripe(&addr)
	if a := lookupAccount(st.accounts[addr], v.at); a != nil {
		e := a.exists
		st.mu.RUnlock()
		return e
	}
	st.mu.RUnlock()
	return v.mv.base.Exists(addr)
}
