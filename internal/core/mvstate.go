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
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// mvState is the proposer's shared multi-version state: the parent snapshot
// plus, in a state.VersionStore ordered by commit version, every committed
// write of the block. Reads at snapshot version v return the newest value
// with version ≤ v, so a worker's view stays consistent while other workers
// commit (paper's "snapshot(thread, version) ← State(version)"). The store
// also keeps Algorithm 1's reserve table and the commit counter, under the
// locks that guard its chains, so a commit validates, takes its version and
// installs as one step (state.VersionStore.Commit).
type mvState struct {
	base  *state.Snapshot
	store *state.VersionStore
	step  Stepper // ProposerConfig.Step, which bound views yield to
}

// newMVState wraps a committed parent snapshot.
func newMVState(base *state.Snapshot) *mvState {
	return &mvState{base: base, store: state.NewVersionStore(0)}
}

// View returns a state.Reader pinned at snapshot version v, for callers with
// no read set to keep current: it never moves.
func (mv *mvState) View(v types.Version) state.Reader {
	return &mvView{mv: mv, before: v + 1}
}

// mvView is a read-only view of mvState at one snapshot version: the store
// read before version+1, the parent snapshot underneath. View hands out pinned
// ones. A proposer lane's is bound to the lane's overlay and extends the
// snapshot under it (extend) rather than serve a read that dooms the commit.
type mvView struct {
	mv     *mvState
	before uint64

	// Bound views only; a pinned view leaves all of it zero.
	overlay *state.Overlay
	held    []types.StateKey // every key served to overlay since begin
	// The recorder node and lane, block height and transaction of the
	// execution, for the extension event.
	node   int16
	lane   int
	height uint64
	tx     *types.Transaction
}

// bind returns a view bound to an overlay of its own: what one proposer lane
// (recorder node and lane, packing block height) runs its transactions on.
func (mv *mvState) bind(node int16, lane int, height uint64) *mvView {
	return &mvView{mv: mv, overlay: state.NewOverlay(nil, 0), node: node, lane: lane, height: height}
}

// begin re-arms the bound view and its overlay for one execution of tx at the
// latest committed version.
func (v *mvView) begin(tx *types.Transaction) {
	snapshot := v.mv.store.Latest()
	v.before, v.held, v.tx = snapshot+1, v.held[:0], tx
	v.overlay.Reset(v, snapshot)
}

// extend runs before a bound view serves key with commits above its snapshot.
// If one of them wrote key — by the reserve table, the authority the commit
// aborts on; a chain also grows on storage-only changes that leave the account
// key alone — the snapshot's value dooms the execution, so the view tries to
// move to the newest commit instead: it loads that version, then asks the
// store whether any key it has served has a writer above the snapshot. The
// store answers with the locks of all those keys held, taken after the load,
// and a commit takes its version and releases its locks only once installed,
// so every commit at or below the version loaded is in the answer: when it is
// no, each value the overlay holds is its value at the new version too, and
// the execution is the one that would have started there. When it is yes the
// stale read goes ahead and the transaction aborts at commit, as it always has.
func (v *mvView) extend(key *types.StateKey) {
	store := v.mv.store
	if !store.WrittenSince(v.before, *key) {
		return
	}
	to := store.Latest()
	if store.WrittenSince(v.before, v.held...) {
		telemetry.ProposerSnapshotExtensionsDeclined.Inc()
		return
	}
	telemetry.ProposerSnapshotExtensions.Inc()
	trace.Extend(v.node, v.lane, v.tx, *key, v.before-1, to, v.height)
	v.overlay.Rebase(to)
	v.before = to + 1
}

// serving runs before a view serves key. A bound one yields to a stepper,
// looks at extending when something has committed since its snapshot, and
// notes that its overlay holds key's value from here on; the rest of the time
// it costs one atomic load.
func (v *mvView) serving(key types.StateKey) {
	if v.overlay == nil {
		return
	}
	if v.mv.step != nil {
		v.mv.step.Yield(v.lane)
	}
	if v.mv.store.Latest() >= v.before {
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
