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

	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
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

// View returns a state.Reader pinned at snapshot version v, for callers with
// no read set to keep current: it never moves.
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
// MVState stripe the key hashes to. It feeds the trace recorder's conflict
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
	if telemetry.Enabled() || trace.Active() != nil {
		start := time.Now()
		mv.store.Lock(set)
		wait := time.Since(start)
		telemetry.ProposerStripeWaitNs.ObserveDuration(wait)
		trace.StripeWait(set, wait)
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
// read before version+1, the parent snapshot underneath. View hands out pinned
// ones. A proposer lane's is bound to the lane's overlay and extends the
// snapshot under it (extend) rather than serve a read that dooms the commit.
type mvView struct {
	mv     *MVState
	before uint64

	// Bound views only; a pinned view leaves all of it zero.
	overlay *state.Overlay
	held    []types.StateKey   // every key served to overlay since begin
	lane    int                // the recorder lane, block height and
	height  uint64             // transaction of the execution, for the
	tx      *types.Transaction // extension event
}

// bind returns a view bound to an overlay of its own: what one proposer lane
// (recorder lane, packing block height) runs its transactions on.
func (mv *MVState) bind(lane int, height uint64) *mvView {
	return &mvView{mv: mv, overlay: state.NewOverlay(nil, 0), lane: lane, height: height}
}

// begin re-arms the bound view and its overlay for one execution of tx at the
// latest committed version.
func (v *mvView) begin(tx *types.Transaction) {
	snapshot := v.mv.Version()
	v.before, v.held, v.tx = snapshot+1, v.held[:0], tx
	v.overlay.Reset(v, snapshot)
}

// extend runs before a bound view serves key with commits above its snapshot.
// If one of them wrote key — by the reserve table, the authority TryCommitEx
// aborts on; a chain also grows on storage-only changes that leave the account
// key alone — the snapshot's value dooms the execution, so the view tries to
// move to the newest commit instead: it loads that version, then takes the
// stripes of every key it has served, in ascending order, and checks that the
// reserve table names no writer above the snapshot for any of them. A commit
// bumps the version with its stripes held and releases them only after the
// reserve table and the chains are updated, so every commit at or below the
// version loaded is visible on a stripe taken afterwards: when the check
// passes, each value the overlay holds is its value at the new version too, and
// the execution is the one that would have started there. When it fails the
// stale read goes ahead and the transaction aborts at commit, as it always has.
func (v *mvView) extend(key *types.StateKey) {
	mv := v.mv
	stripe := mv.store.StripeOfKey(key)
	mv.store.RLock(1 << stripe)
	winner := mv.reserve[stripe][*key]
	mv.store.RUnlock(1 << stripe)
	if winner < v.before {
		return
	}
	to := mv.version.Load()
	var set uint64
	for i := range v.held {
		set |= 1 << mv.store.StripeOfKey(&v.held[i])
	}
	current := true
	mv.store.RLock(set)
	for i := range v.held {
		if mv.reserve[mv.store.StripeOfKey(&v.held[i])][v.held[i]] >= v.before {
			current = false
			break
		}
	}
	mv.store.RUnlock(set)
	if !current {
		telemetry.ProposerSnapshotExtensionsDeclined.Inc()
		return
	}
	telemetry.ProposerSnapshotExtensions.Inc()
	trace.Extend(v.lane, v.tx, *key, v.before-1, to, int(stripe), v.height)
	v.overlay.Rebase(to)
	v.before = to + 1
}

// serving runs before a view serves key. A bound one looks at extending when
// something has committed since its snapshot, and notes that its overlay holds
// key's value from here on; the rest of the time it costs one atomic load.
func (v *mvView) serving(key types.StateKey) {
	if v.overlay == nil {
		return
	}
	if v.mv.version.Load() >= v.before {
		v.extend(&key)
	}
	v.held = append(v.held, key)
}

// Account implements state.Reader: one chain resolution, the parent
// snapshot underneath (every committed account version exists). Code below
// resolves separately and still agrees with the hash reported here: entries
// at or below the snapshot version are fully installed and never change, and
// the snapshot moves past an account the overlay holds only when nobody has
// written it.
func (v *mvView) Account(addr types.Address) (state.Account, bool) {
	v.serving(types.AccountKey(addr))
	e, code, ok := v.mv.store.ResolveAccount(addr, v.before)
	if !ok {
		return v.mv.base.Account(addr)
	}
	return e.Val.Over(&code.Val, v.mv.base, addr), true
}

// Code implements state.Reader. It rides the account key, which the overlay
// holds by now: no extension of its own.
func (v *mvView) Code(addr types.Address) []byte {
	if e, ok := v.mv.store.ResolveCode(addr, v.before); ok {
		return e.Val.Code
	}
	return v.mv.base.Code(addr)
}

// Storage implements state.Reader.
func (v *mvView) Storage(addr types.Address, slot types.Hash) uint256.Int {
	v.serving(types.StorageKey(addr, slot))
	if e, ok := v.mv.store.ResolveSlot(addr, slot, v.before); ok {
		return e.Val
	}
	return v.mv.base.Storage(addr, slot)
}
