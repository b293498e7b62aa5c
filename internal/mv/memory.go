// Package mv implements BlockPilot's second proposer engine: a
// Block-STM-style multi-version in-memory state (PAPERS.md, Gelashvili et
// al.) as a one-field (core.ProposerConfig.Engine) alternative to the OCC-WSI
// engine in internal/core.
//
// Where OCC-WSI aborts a conflicted transaction outright and re-executes it
// from the mempool, MV-STM keeps one version chain per state key: every
// transaction index that wrote the key owns an entry tagged with its
// incarnation, and an aborted incarnation's entries are flipped to ESTIMATE
// sentinels instead of being discarded. A reader that lands on an ESTIMATE
// suspends on the writing transaction (it is *known* to rewrite the key)
// rather than speculating through it, and a collaborative scheduler
// (scheduler.go) interleaves execution and validation tasks by transaction
// index so the block's serialization order is fixed up-front. Validation of
// transaction i re-resolves i's recorded read set against the current
// multi-version state; any changed resolution aborts i, converts its writes
// to ESTIMATEs, and schedules the next incarnation.
//
// The resulting committed order is always the claimed index order, and the
// final state is the same as executing the transactions serially in that
// order — the engine plugs into the exact seal path, block profile, and
// oracles the OCC-WSI engine uses.
package mv

import (
	"slices"
	"sync/atomic"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
)

// readKind distinguishes the three independently versioned paths of one
// account: the scalar fields (nonce/balance/existence, written by every
// change-set entry), the contract code (written only by deploys), and the
// storage slots. Paths are tracked separately so a balance-only write never
// invalidates or blocks a code read of the same account.
type readKind uint8

const (
	readScalar readKind = iota
	readCode
	readSlot
)

// ReadRecord is one entry of a transaction's read set: which path of which
// key was read, and the version (writing tx + incarnation) that was observed.
// Tx == -1 means the read fell through to the base snapshot.
type ReadRecord struct {
	Addr types.Address
	Slot types.Hash // zero unless Kind == readSlot
	Kind readKind
	Tx   int
	Inc  int
}

// Key maps the read record to its reserve-table-style state key: storage
// reads to the (addr, slot) key, scalar and code reads to the account key.
// This is the granularity the adaptive controller's hot-key sketch uses, so
// MV-STM validation failures and OCC-WSI commit conflicts attribute to the
// same keys.
func (r ReadRecord) Key() types.StateKey { return writeLoc{r.Addr, r.Slot, r.Kind}.key() }

// baseVersion marks a read that resolved below every multi-version entry.
const baseVersion = -1

// writeLoc names one written path, at path granularity (scalar/code/slot):
// the unit of the wrote-new-path test that decides whether higher
// transactions must be revalidated after a re-execution.
type writeLoc struct {
	addr types.Address
	slot types.Hash
	kind readKind
}

// key is the store chain the path lives on: a code path shares the account
// chain (and entry) with the scalar path.
func (l writeLoc) key() types.StateKey {
	if l.kind == readSlot {
		return types.StorageKey(l.addr, l.slot)
	}
	return types.AccountKey(l.addr)
}

// Memory is the multi-version memory shared by every worker of one MV-STM
// block: a state.VersionStore ordered by transaction index over an immutable
// base snapshot, plus what is Block-STM about it — the per-transaction
// last-write locations and read sets the validation pass needs. Chains grow
// monotonically across claim rounds; within a round all methods are safe for
// concurrent use.
type Memory struct {
	base  state.Reader
	store *state.VersionStore

	// stale, when set, makes every read resolve from the base snapshot and
	// every validation pass vacuously — the seeded-bug fault injection for
	// the simulator's mutation self-check (DESIGN.md §6). Never set in
	// production paths.
	stale bool

	// Per-transaction bookkeeping, indexed by absolute transaction index.
	// The slices grow only between rounds (no workers running); during a
	// round, writes[i] is owned by whichever worker holds i's execution or
	// abort task (the scheduler's status mutex orders those hand-offs) and
	// reads[i] is an atomic pointer because validation tasks race with
	// re-executions.
	writes [][]writeLoc
	reads  []atomic.Pointer[[]ReadRecord]
}

// NewMemory returns an empty multi-version memory over base.
func NewMemory(base state.Reader) *Memory {
	return &Memory{base: base, store: state.NewVersionStore(0)}
}

// grow extends the per-transaction bookkeeping to n transactions. Called
// between rounds only.
func (m *Memory) grow(n int) {
	for len(m.writes) < n {
		m.writes = append(m.writes, nil)
	}
	if len(m.reads) < n {
		reads := make([]atomic.Pointer[[]ReadRecord], n)
		copy(reads, m.reads)
		m.reads = reads
	}
}

// Record installs transaction tx's (incarnation inc's) writes and read set:
// one account entry per changed account, one slot entry per written slot,
// and it removes any location the previous incarnation wrote that this one
// did not. It reports whether the incarnation wrote a path its predecessor
// did not — the scheduler then revalidates every higher transaction, which
// is what makes the per-path resolution (ResolveCode skipping non-code
// entries) sound.
func (m *Memory) Record(tx, inc int, reads []ReadRecord, cs *state.ChangeSet) (wroteNew bool) {
	var locs []writeLoc
	if cs != nil {
		for i := range cs.Accounts {
			ch := &cs.Accounts[i]
			locs = append(locs, writeLoc{addr: ch.Addr, kind: readScalar})
			if ch.CodeSet {
				locs = append(locs, writeLoc{addr: ch.Addr, kind: readCode})
			}
			for _, s := range ch.Slots {
				locs = append(locs, writeLoc{addr: ch.Addr, slot: s.Slot, kind: readSlot})
			}
		}
		m.store.Put(uint64(tx), inc, cs)
	}
	prev := m.writes[tx]
	for _, p := range prev {
		if !slices.Contains(locs, p) {
			m.removeLoc(tx, p)
		}
	}
	for _, l := range locs {
		if !slices.Contains(prev, l) {
			wroteNew = true
			break
		}
	}
	m.writes[tx] = locs
	m.reads[tx].Store(&reads)
	return wroteNew
}

// removeLoc deletes tx's entry for one written path. A code loc shares its
// entry with the scalar loc: the Put of the new incarnation already cleared
// CodeSet, so only orphaned scalar/slot entries are removed here.
func (m *Memory) removeLoc(tx int, l writeLoc) {
	if l.kind != readCode {
		m.store.Remove(l.key(), uint64(tx))
	}
}

// ConvertToEstimates flips every entry of tx's last recorded write set to an
// ESTIMATE sentinel (validation abort): readers of those keys will suspend
// on tx until its next incarnation lands.
func (m *Memory) ConvertToEstimates(tx int) {
	for _, l := range m.writes[tx] {
		if l.kind != readCode {
			m.store.MarkEstimate(l.key(), uint64(tx))
		}
	}
}

// Purge removes every entry transaction tx installed (gas-limit eviction at
// finalization: the tail of the block is cut and requeued). Callers purge
// the highest index first so no surviving transaction can have read a
// purged value.
func (m *Memory) Purge(tx int) {
	for _, l := range m.writes[tx] {
		m.removeLoc(tx, l)
	}
	m.writes[tx] = nil
	m.reads[tx].Store(nil)
}

// ValidateReadSet re-resolves transaction tx's recorded read set against
// the current multi-version state: every read must resolve to the same
// version it observed (and to a non-ESTIMATE value). It returns ok=false
// with the first read that no longer does (abort attribution). A tx with no
// recorded reads (never executed) is vacuously valid.
func (m *Memory) ValidateReadSet(tx int) (stale ReadRecord, ok bool) {
	recs := m.reads[tx].Load()
	if m.stale || recs == nil {
		return ReadRecord{}, true
	}
	before := uint64(tx)
	for _, r := range *recs {
		var same bool
		switch r.Kind {
		case readScalar:
			e, _, found := m.store.ResolveAccount(r.Addr, before)
			same = sameVersion(e, found, r)
		case readCode:
			e, found := m.store.ResolveCode(r.Addr, before)
			same = sameVersion(e, found, r)
		case readSlot:
			e, found := m.store.ResolveSlot(r.Addr, r.Slot, before)
			same = sameVersion(e, found, r)
		}
		if !same {
			return r, false
		}
	}
	return ReadRecord{}, true
}

// sameVersion reports whether a re-resolution (found=false: the base) is the
// version read r observed.
func sameVersion[V any](e state.Versioned[V], found bool, r ReadRecord) bool {
	if !found {
		return r.Tx == baseVersion
	}
	return !e.Estimate && int(e.Key) == r.Tx && e.Inc == r.Inc
}

// Flatten returns the merged change set of every surviving entry — the
// last-writer-wins merge in transaction-index order. The caller must be done
// executing (and must have purged any cut tail).
func (m *Memory) Flatten() *state.ChangeSet { return m.store.Flatten() }
