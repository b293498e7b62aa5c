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
	"sync/atomic"
	"time"

	"blockpilot/internal/flight"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// MVState is the proposer's shared multi-version state: the parent snapshot
// plus, in a state.VersionStore ordered by commit version, every committed
// write of the block. Reads at snapshot version v return the newest value
// with version ≤ v, so a worker's view stays consistent while other workers
// commit (paper's "snapshot(thread, version) ← State(version)").
//
// What is OCC-WSI here is the reserve table — sharded like the store and
// guarded by the store's stripe locks — and the global commit counter, a
// single atomic. TryCommit stays linearizable by holding every stripe its
// access set touches across the validate → bump → install sequence. Within
// one stripe, installation order therefore equals version order, and a
// reader that pins version v and then acquires a stripe lock is guaranteed
// to see every commit ≤ v fully installed (commits release their stripes
// only after installing).
type MVState struct {
	base    *state.Snapshot
	store   *state.VersionStore
	reserve []map[types.StateKey]types.Version // Alg. 1's Table, one shard per store stripe
	version atomic.Uint64                      // latest committed version
}

// NewMVState wraps a committed parent snapshot with the default stripe count.
func NewMVState(base *state.Snapshot) *MVState {
	return NewMVStateStripes(base, state.DefaultStripes)
}

// NewMVStateStripes wraps a parent snapshot with an explicit stripe count
// (the stripe-torture test runs 1, 4 and 64; see state.NewVersionStore for
// the clamping). n = 1 is a single-lock MVState.
func NewMVStateStripes(base *state.Snapshot, n int) *MVState {
	mv := &MVState{base: base, store: state.NewVersionStore(n)}
	mv.reserve = make([]map[types.StateKey]types.Version, mv.store.Stripes())
	for i := range mv.reserve {
		mv.reserve[i] = make(map[types.StateKey]types.Version)
	}
	return mv
}

// Version returns the latest committed version (0 = parent state only).
func (mv *MVState) Version() types.Version {
	return mv.version.Load()
}

// View returns a state.Reader pinned at snapshot version v.
func (mv *MVState) View(v types.Version) state.Reader {
	return &mvView{mv: mv, before: v + 1}
}

// commitStripes computes the bitmask of stripes a commit must hold: every
// stripe owning a read key (reserve validation), a write key (reserve
// update), or a change-set entry (version installation). The write set does
// not always cover the change set: internal/bench's reserve-table granularity
// ablation coarsens access-set keys to whole accounts while the change set
// stays slot-granular.
func (mv *MVState) commitStripes(access *types.AccessSet, cs *state.ChangeSet) uint64 {
	set := mv.store.StripesOf(cs)
	for key := range access.Reads {
		set |= 1 << mv.store.StripeOfKey(&key)
	}
	for key := range access.Writes {
		set |= 1 << mv.store.StripeOfKey(&key)
	}
	return set
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
		mv.store.Lock(set)
		wait := time.Since(start)
		telemetry.ProposerStripeWaitNs.ObserveDuration(wait)
		flight.StripeWait(set, wait)
	} else {
		mv.store.Lock(set)
	}
	defer mv.store.Unlock(set)

	for key, readVersion := range access.Reads {
		stripe := mv.store.StripeOfKey(&key)
		if winner := mv.reserve[stripe][key]; winner > readVersion {
			// Stale read: the reserve-table check (the CAS of Alg. 1's
			// DetectConflict) failed — abort back to the pool.
			telemetry.ProposerReserveConflicts.Inc()
			return 0, CommitConflict{Key: key, Winner: winner, Stripe: int(stripe)}, false
		}
	}
	// The version bump happens while every touched stripe is held, so for
	// any stripe shared by two commits the bump order equals the stripe
	// critical-section order: per-stripe version chains only ever append.
	v := mv.version.Add(1)
	mv.store.Put(v, 0, cs)
	// Reserve every recorded write key — including writes whose final value
	// equals the base (conservative, and deterministic across replays).
	for key := range access.Writes {
		mv.reserve[mv.store.StripeOfKey(&key)][key] = v
	}
	return v, CommitConflict{}, true
}

// Flatten returns the merged change set of all commits so far, equivalent to
// merging every committed change set in version order (last writer wins per
// key). The caller must be done committing (proposer finalization).
func (mv *MVState) Flatten() *state.ChangeSet { return mv.store.Flatten() }

// mvView is a read-only view of MVState at one snapshot version: the store
// read before version+1, the parent snapshot underneath.
type mvView struct {
	mv     *MVState
	before uint64
}

// Account implements state.Reader: one chain resolution, the parent
// snapshot underneath (every committed account version exists). Code below
// resolves separately and still agrees with the hash reported here: entries
// at or below the pinned version are fully installed and never change.
func (v *mvView) Account(addr types.Address) (state.Account, bool) {
	e, code, ok := v.mv.store.ResolveAccount(addr, v.before)
	if !ok {
		return v.mv.base.Account(addr)
	}
	return e.Val.Over(&code.Val, v.mv.base, addr), true
}

// Code implements state.Reader.
func (v *mvView) Code(addr types.Address) []byte {
	if e, ok := v.mv.store.ResolveCode(addr, v.before); ok {
		return e.Val.Code
	}
	return v.mv.base.Code(addr)
}

// Storage implements state.Reader.
func (v *mvView) Storage(addr types.Address, slot types.Hash) uint256.Int {
	if e, ok := v.mv.store.ResolveSlot(addr, slot, v.before); ok {
		return e.Val
	}
	return v.mv.base.Storage(addr, slot)
}
