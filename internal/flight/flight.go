// Package flight is BlockPilot's transaction flight recorder: a per-worker
// ring-buffered log of structured lifecycle events for every transaction —
// mempool admission, pop, speculative attempt start/end, WSI abort (with the
// conflicting key, the winning committed version and the stripe), commit
// (version and block position), drop, validator component assignment,
// replay or reuse of a sibling's result, and verify pass/fail — each with
// nanosecond timestamps and worker ids.
//
// On top of the raw event stream the package aggregates *conflict
// attribution*: the top-K hot state keys and hot senders by abort count
// (space-saving heavy-hitter sketch, attribution.go) and per-stripe
// abort/wait skew gauges wired into the telemetry registry. Exports include
// per-transaction JSON timelines, a Chrome-trace-event (Perfetto-compatible)
// rendering (perfetto.go), and HTTP endpoints under /flight/, served through
// the recorder's telemetry.Slot.
//
// Design constraints (ISSUE 3):
//
//   - The disabled path (the default) is one atomic pointer load and a nil
//     check: ≈0 ns, zero allocations — enforced by TestDisabledPathBudget
//     and the Benchmark*Disabled benchmarks, run by `make ci`.
//   - The enabled path never contends across workers: every worker writes
//     its own ring (selected by worker id), whose mutex is uncontended in
//     steady state; the only shared write is the attribution sketch, touched
//     exclusively on the abort path.
//   - No dependencies beyond the standard library, internal/types and
//     internal/telemetry.
package flight

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
)

// EventKind enumerates the lifecycle stages a transaction passes through.
type EventKind uint8

const (
	evInvalid EventKind = iota
	// EvAdmit: the transaction entered a mempool (Pool.Add).
	EvAdmit
	// EvPop: a proposer worker claimed the transaction from the pool.
	EvPop
	// EvExecStart / EvExecEnd bracket one speculative execution attempt.
	EvExecStart
	EvExecEnd
	// EvAbort: the commit was rejected by the reserve-table validation.
	// Key is the conflicting state key, Version the winning committed
	// version that overwrote the stale read, Stripe the key's MVState
	// stripe.
	EvAbort
	// EvRequeue: the aborted or nonce-blocked transaction went back to the
	// pool for retry.
	EvRequeue
	// EvCommit: the transaction committed; Version is its serialization
	// number (the block-order rank before final assembly).
	EvCommit
	// EvSeal: block assembly fixed the transaction's final position
	// (Aux = position in the block) at the given height.
	EvSeal
	// EvDrop: the transaction was abandoned. Aux = 1 when the retry budget
	// was exhausted, 0 when it was permanently invalid.
	EvDrop
	// EvAssign: a validator lane claimed the transaction.
	// Aux = dependency-component id, Aux2 = the component's gas weight,
	// Worker = the claiming lane.
	EvAssign
	// EvReplayStart / EvReplayEnd bracket the validator's re-execution.
	EvReplayStart
	EvReplayEnd
	// EvVerifyPass / EvVerifyFail: the applier checked the observed access
	// set and gas against the block profile.
	EvVerifyPass
	EvVerifyFail
	// EvBlockSubmit / EvBlockDone: pipeline block milestones (Tx is zero;
	// Aux = 1 on EvBlockDone means the block validated and committed).
	EvBlockSubmit
	EvBlockDone
	// EvExtend: a proposer worker about to read a key overwritten after its
	// snapshot re-based the execution on the newest commit instead (OCC-WSI
	// snapshot extension). Key is that key, Stripe its MVState stripe,
	// Aux the snapshot version left, Version the one moved to.
	EvExtend
	// EvReuse: a validator lane took a same-parent sibling's verified result
	// for the transaction instead of re-executing it. Aux = the transaction's
	// index in the sibling (the leader) whose result was taken.
	EvReuse
)

var kindNames = [...]string{
	evInvalid:     "invalid",
	EvAdmit:       "admit",
	EvPop:         "pop",
	EvExecStart:   "exec_start",
	EvExecEnd:     "exec_end",
	EvAbort:       "abort",
	EvRequeue:     "requeue",
	EvCommit:      "commit",
	EvSeal:        "seal",
	EvDrop:        "drop",
	EvAssign:      "assign",
	EvReplayStart: "replay_start",
	EvReplayEnd:   "replay_end",
	EvVerifyPass:  "verify_pass",
	EvVerifyFail:  "verify_fail",
	EvBlockSubmit: "block_submit",
	EvBlockDone:   "block_done",
	EvExtend:      "extend",
	EvReuse:       "reuse",
}

// String returns the event kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Worker-id namespaces. Proposer workers use their plain index; validator
// execution lanes are offset so one Perfetto track per lane renders
// separately from the proposer lanes; System tags events raised outside any
// worker loop (mempool admission, block assembly, pipeline milestones).
const (
	// ValidatorLaneBase offsets validator lane ids.
	ValidatorLaneBase = 0x100
	// WorkerSystem marks events without a worker context.
	WorkerSystem = 0x1FF
)

// ValidatorLane returns the worker id for validator execution lane i.
func ValidatorLane(i int) int { return ValidatorLaneBase + i }

// Event is one recorded lifecycle event. TS is nanoseconds since the
// recorder was enabled; Seq imposes a total order on simultaneous events.
type Event struct {
	TS      int64
	Seq     uint64
	Tx      types.Hash
	Sender  types.Address
	Key     types.StateKey // EvAbort: the conflicting key; EvExtend: the stale one
	Version types.Version  // commit version / winning version on abort / extended-to version
	Aux     uint64         // kind-specific (see the EventKind docs)
	Aux2    uint64
	Height  uint64
	Kind    EventKind
	Worker  int16
	Stripe  int16 // EvAbort, EvExtend: the key's stripe
}

// ring is one worker's event buffer. The owning worker is the only steady-
// state writer, so the mutex is uncontended except against snapshots.
type ring struct {
	mu  sync.Mutex
	buf telemetry.Ring[Event]
	_   [32]byte // keep neighbouring rings' mutexes apart
}

func (rg *ring) record(ev Event) {
	rg.mu.Lock()
	rg.buf.Push(ev)
	rg.mu.Unlock()
}

func (rg *ring) snapshot(out []Event) []Event {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.buf.AppendTo(out)
}

// A recorder's sizes: 16 per-worker rings (worker id modulo DefaultRings
// selects the ring) × 8192 events ≈ 131k buffered events — several blocks of
// full lifecycle traffic at the paper's 132 tx/block — and a 64-entry
// heavy-hitter sketch each for hot keys and hot senders.
const (
	DefaultRings        = 16
	DefaultRingCapacity = 8192
	DefaultTopK         = 64
	// StripeSlots mirrors state.DefaultStripes: the per-stripe attribution
	// arrays cover every possible MVState stripe index.
	StripeSlots = 64
)

// Recorder owns the rings and the attribution aggregates.
type Recorder struct {
	start time.Time
	seq   atomic.Uint64
	rings []ring

	// Conflict attribution (attribution.go).
	abortTotal atomic.Uint64
	hotKeys    *TopK[types.StateKey]
	hotSenders *TopK[types.Address]
	stripes    [StripeSlots]stripeStat
}

// NewRecorder builds a recorder without installing it.
func NewRecorder() *Recorder {
	return newRecorder(DefaultRings, DefaultRingCapacity, DefaultTopK)
}

// newRecorder builds a recorder of the given sizes (tests want tiny rings).
func newRecorder(rings, ringCapacity, topK int) *Recorder {
	r := &Recorder{
		start:      time.Now(),
		rings:      make([]ring, rings),
		hotKeys:    NewTopK[types.StateKey](topK),
		hotSenders: NewTopK[types.Address](topK),
	}
	for i := range r.rings {
		r.rings[i].buf = telemetry.NewRing[Event](ringCapacity)
	}
	return r
}

// active is the installed recorder; nil = flight recording disabled. The
// hot-path helpers below reduce to one atomic load + nil check when
// disabled.
var active telemetry.Slot[Recorder]

// The /flight/ endpoints, served from the installed recorder.
func init() {
	active.Serve("flight recorder", "-flight", map[string]telemetry.View[Recorder]{
		"/flight/events": func(r *Recorder, _ *http.Request) (any, error) { return Views(r.Events()), nil },
		// One transaction's timeline: ?tx=<hash or unique prefix>.
		"/flight/txtrace": func(r *Recorder, req *http.Request) (any, error) {
			tx := req.URL.Query().Get("tx")
			if tx == "" {
				return nil, errString("missing ?tx=<hash or unique prefix>")
			}
			evs, err := r.TimelineByPrefix(tx)
			if err != nil {
				return nil, err
			}
			return Views(evs), nil
		},
		// The conflict-attribution report: ?n= heavy hitters (default 10).
		"/flight/hotkeys": func(r *Recorder, req *http.Request) (any, error) {
			return r.Attribution(telemetry.QueryN(req)), nil
		},
		// The Perfetto file, events plus the installed block tracer's spans.
		"/flight/trace.json": func(r *Recorder, _ *http.Request) (any, error) {
			return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
				_ = r.WriteTrace(w, trace.Active().Spans())
			}), nil
		},
	})
}

// Enable installs a fresh recorder (replacing any previous one) and returns
// it. The /flight endpoints always serve the currently installed recorder.
func Enable() *Recorder {
	r := NewRecorder()
	active.Store(r)
	return r
}

// Disable uninstalls the recorder; the hot-path helpers return to the no-op
// fast path. The previously installed recorder (if any) is returned so its
// buffered events can still be exported.
func Disable() *Recorder { return active.Swap(nil) }

// Active returns the installed recorder, or nil when disabled.
func Active() *Recorder { return active.Load() }

// Enabled reports whether a recorder is installed.
func Enabled() bool { return active.Load() != nil }

// record stamps and stores one event into the worker's ring.
func (r *Recorder) record(worker int, ev Event) {
	ev.TS = time.Since(r.start).Nanoseconds()
	ev.Seq = r.seq.Add(1)
	ev.Worker = int16(worker)
	r.rings[uint(worker)%uint(len(r.rings))].record(ev)
}

// Events returns every buffered event merged across rings, ordered by
// (TS, Seq).
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.rings {
		out = r.rings[i].snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Total returns how many events were ever recorded (including overwritten).
func (r *Recorder) Total() uint64 {
	var n uint64
	for i := range r.rings {
		r.rings[i].mu.Lock()
		n += r.rings[i].buf.Total()
		r.rings[i].mu.Unlock()
	}
	return n
}

// ---------------------------------------------------------------------------
// Hot-path helpers. Each is a single atomic load + nil check when disabled;
// argument evaluation must therefore stay allocation-free (transactions are
// passed by pointer, hashes are computed only once recording is certain).

// Admit records a mempool admission (no worker context).
func Admit(tx *types.Transaction) {
	if r := active.Load(); r != nil {
		r.record(WorkerSystem, Event{Kind: EvAdmit, Tx: tx.Hash(), Sender: tx.From})
	}
}

// Pop records a proposer worker claiming tx from the pool.
func Pop(worker int, tx *types.Transaction, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{Kind: EvPop, Tx: tx.Hash(), Sender: tx.From, Height: height})
	}
}

// ExecStart records the beginning of one speculative execution attempt.
func ExecStart(worker int, tx *types.Transaction, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{Kind: EvExecStart, Tx: tx.Hash(), Sender: tx.From, Height: height})
	}
}

// ExecEnd records the end of one speculative execution attempt.
func ExecEnd(worker int, tx *types.Transaction, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{Kind: EvExecEnd, Tx: tx.Hash(), Sender: tx.From, Height: height})
	}
}

// Abort records a WSI conflict abort: key is the stale-read key that failed
// the reserve-table validation, winner the committed version that overwrote
// it, stripe the key's MVState stripe. The abort also feeds the hot-key /
// hot-sender sketches and the per-stripe abort counters.
func Abort(worker int, tx *types.Transaction, key types.StateKey, winner types.Version, stripe int, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{
			Kind: EvAbort, Tx: tx.Hash(), Sender: tx.From,
			Key: key, Version: winner, Stripe: int16(stripe), Height: height,
		})
		r.noteAbort(tx.From, key, stripe)
	}
}

// Extend records a snapshot extension: the execution of tx on worker moved
// from snapshot version from to version to because key, which it was about to
// read, had been overwritten in between.
func Extend(worker int, tx *types.Transaction, key types.StateKey, from, to types.Version, stripe int, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{
			Kind: EvExtend, Tx: tx.Hash(), Sender: tx.From,
			Key: key, Version: to, Aux: from, Stripe: int16(stripe), Height: height,
		})
	}
}

// Requeue records an aborted/nonce-blocked transaction returning to the pool.
func Requeue(worker int, tx *types.Transaction, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{Kind: EvRequeue, Tx: tx.Hash(), Sender: tx.From, Height: height})
	}
}

// Commit records a successful commit with its serialization version.
func Commit(worker int, tx *types.Transaction, version types.Version, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{Kind: EvCommit, Tx: tx.Hash(), Sender: tx.From, Version: version, Height: height})
	}
}

// Seal records the transaction's final position in the assembled block.
func Seal(tx *types.Transaction, version types.Version, position int, height uint64) {
	if r := active.Load(); r != nil {
		r.record(WorkerSystem, Event{
			Kind: EvSeal, Tx: tx.Hash(), Sender: tx.From,
			Version: version, Aux: uint64(position), Height: height,
		})
	}
}

// Drop records a permanently abandoned transaction. retryExhausted
// distinguishes retry-budget exhaustion from outright invalidity.
func Drop(worker int, tx *types.Transaction, height uint64, retryExhausted bool) {
	if r := active.Load(); r != nil {
		var aux uint64
		if retryExhausted {
			aux = 1
		}
		r.record(worker, Event{Kind: EvDrop, Tx: tx.Hash(), Sender: tx.From, Aux: aux, Height: height})
	}
}

// Assign records a validator lane's claim of tx: its dependency component
// id, the component's gas weight, and the lane.
func Assign(lane int, tx *types.Transaction, component int, componentGas uint64, height uint64) {
	if r := active.Load(); r != nil {
		r.record(ValidatorLane(lane), Event{
			Kind: EvAssign, Tx: tx.Hash(), Sender: tx.From,
			Aux: uint64(component), Aux2: componentGas, Height: height,
		})
	}
}

// ReplayStart records the beginning of the validator's re-execution of tx.
func ReplayStart(lane int, tx *types.Transaction, height uint64) {
	if r := active.Load(); r != nil {
		r.record(ValidatorLane(lane), Event{Kind: EvReplayStart, Tx: tx.Hash(), Sender: tx.From, Height: height})
	}
}

// ReplayEnd records the end of the validator's re-execution of tx.
func ReplayEnd(lane int, tx *types.Transaction, height uint64) {
	if r := active.Load(); r != nil {
		r.record(ValidatorLane(lane), Event{Kind: EvReplayEnd, Tx: tx.Hash(), Sender: tx.From, Height: height})
	}
}

// Reuse records validator lane taking the result of tx from the sibling block
// that executed it first, where it sat at index leaderIndex.
func Reuse(lane int, tx *types.Transaction, leaderIndex int, height uint64) {
	if r := active.Load(); r != nil {
		r.record(ValidatorLane(lane), Event{Kind: EvReuse, Tx: tx.Hash(), Sender: tx.From, Aux: uint64(leaderIndex), Height: height})
	}
}

// Verify records the applier's profile check outcome for tx.
func Verify(tx *types.Transaction, pass bool, height uint64) {
	if r := active.Load(); r != nil {
		kind := EvVerifyPass
		if !pass {
			kind = EvVerifyFail
		}
		r.record(WorkerSystem, Event{Kind: kind, Tx: tx.Hash(), Sender: tx.From, Height: height})
	}
}

// BlockSubmit records a block entering the validation pipeline.
func BlockSubmit(height uint64) {
	if r := active.Load(); r != nil {
		r.record(WorkerSystem, Event{Kind: EvBlockSubmit, Height: height})
	}
}

// BlockDone records a block leaving the pipeline (ok = validated+committed).
func BlockDone(height uint64, ok bool) {
	if r := active.Load(); r != nil {
		var aux uint64
		if ok {
			aux = 1
		}
		r.record(WorkerSystem, Event{Kind: EvBlockDone, Aux: aux, Height: height})
	}
}

// StripeWait attributes one commit attempt's stripe-lock wait to every
// stripe in the touched set (a hot stripe appears in many sets, so convoy
// time concentrates on it). set is the MVState stripe bitmask.
func StripeWait(set uint64, d time.Duration) {
	if r := active.Load(); r != nil {
		r.noteStripeWait(set, d)
	}
}
