// The transaction events: the event kinds, the Event record every kind
// shares, the worker-id namespaces, and the hot-path helpers the proposer,
// the mempool, the validator and the pipeline call.
package trace

import "blockpilot/internal/types"

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
	// version that overwrote the stale read.
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
	// EvAssign: a validator lane claimed the transaction. Aux = 1 + the
	// block position of the newest writer any of its profile reads waits on
	// (0 = none), Aux2 = how many of its reads have such a writer, Worker =
	// the claiming lane.
	EvAssign
	// EvReplayStart / EvReplayEnd bracket the validator's re-execution.
	EvReplayStart
	EvReplayEnd
	// EvVerifyPass / EvVerifyFail: the applier checked the observed access
	// set and gas against the block profile.
	EvVerifyPass
	EvVerifyFail
	// EvExtend: a proposer worker about to read a key overwritten after its
	// snapshot re-based the execution on the newest commit instead (OCC-WSI
	// snapshot extension). Key is that key, Aux the snapshot version left,
	// Version the one moved to.
	EvExtend
	// EvReuse: a validator lane took a same-parent sibling's verified result
	// for the transaction instead of re-executing it. Aux = the transaction's
	// index in the sibling (the leader) whose result was taken.
	EvReuse
	// EvStage: a block completed a stage on a node (stage.go). Tx is the
	// block's hash, TS the stage's start, Aux its duration in ns (Dur),
	// Worker its node and From, for a transfer, the sending node, both as
	// indices into the recorder's node table (Nodes).
	EvStage
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
	EvExtend:      "extend",
	EvReuse:       "reuse",
	EvStage:       "stage",
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
// worker loop (mempool admission, block assembly, the applier's verify).
const (
	// ValidatorLaneBase offsets validator lane ids.
	ValidatorLaneBase = 0x100
	// WorkerSystem marks events without a worker context.
	WorkerSystem = 0x1FF
)

// ValidatorLane returns the worker id for validator execution lane i.
func ValidatorLane(i int) int { return ValidatorLaneBase + i }

// Event is one recorded lifecycle event. TS is nanoseconds since the
// recorder's start; Seq imposes a total order on simultaneous events.
type Event struct {
	TS      int64
	Seq     uint64
	Tx      types.Hash // EvStage: the block
	Sender  types.Address
	Key     types.StateKey // EvAbort: the conflicting key; EvExtend: the stale one
	Version types.Version  // commit version / winning version on abort / extended-to version
	Aux     uint64         // kind-specific (see the EventKind docs)
	Aux2    uint64
	Height  uint64
	Kind    EventKind
	Stage   Stage // EvStage only
	Worker  int16
	From    int16 // EvStage transfer: the sending node
	// Node is, on a transaction event, the node that recorded it as an
	// index into the recorder's node table (Nodes); 0 = unnamed. Lanes of
	// one id on two nodes stay apart by it.
	Node int16
}

// Dur returns a stage event's duration in ns.
func (ev *Event) Dur() int64 { return int64(ev.Aux) }

// ---------------------------------------------------------------------------
// Hot-path helpers. Each is a single atomic load + nil check when disabled;
// argument evaluation must therefore stay allocation-free (transactions are
// passed by pointer, hashes are computed only once recording is certain).

// NodeIndex returns the installed recorder's node-table index for name,
// adding it on first use, or 0 with nothing installed. The proposer and the
// validator call it once per block and pass the index as the node of every
// transaction event they record in it.
func NodeIndex(name string) int16 {
	if r := active.Load(); r != nil {
		return r.nodeID(name)
	}
	return 0
}

// txEvent records one event of tx on node's worker with its kind-specific
// payload.
func txEvent(node int16, worker int, kind EventKind, tx *types.Transaction, height, aux, aux2 uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{Kind: kind, Node: node, Tx: tx.Hash(), Sender: tx.From, Height: height, Aux: aux, Aux2: aux2})
	}
}

// Admit records a mempool admission (no worker or node context).
func Admit(tx *types.Transaction) { txEvent(0, WorkerSystem, EvAdmit, tx, 0, 0, 0) }

// Pop records a proposer worker claiming tx from the pool.
func Pop(node int16, worker int, tx *types.Transaction, height uint64) {
	txEvent(node, worker, EvPop, tx, height, 0, 0)
}

// ExecStart records the beginning of one speculative execution attempt.
func ExecStart(node int16, worker int, tx *types.Transaction, height uint64) {
	txEvent(node, worker, EvExecStart, tx, height, 0, 0)
}

// ExecEnd records the end of one speculative execution attempt.
func ExecEnd(node int16, worker int, tx *types.Transaction, height uint64) {
	txEvent(node, worker, EvExecEnd, tx, height, 0, 0)
}

// Abort records a WSI conflict abort: key is the stale-read key that failed
// the reserve-table validation, winner the committed version that overwrote
// it. Conflict attribution counts these events.
func Abort(node int16, worker int, tx *types.Transaction, key types.StateKey, winner types.Version, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{
			Kind: EvAbort, Node: node, Tx: tx.Hash(), Sender: tx.From,
			Key: key, Version: winner, Height: height,
		})
	}
}

// Extend records a snapshot extension: the execution of tx on worker moved
// from snapshot version from to version to because key, which it was about to
// read, had been overwritten in between.
func Extend(node int16, worker int, tx *types.Transaction, key types.StateKey, from, to types.Version, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{
			Kind: EvExtend, Node: node, Tx: tx.Hash(), Sender: tx.From,
			Key: key, Version: to, Aux: from, Height: height,
		})
	}
}

// Requeue records an aborted/nonce-blocked transaction returning to the pool.
func Requeue(node int16, worker int, tx *types.Transaction, height uint64) {
	txEvent(node, worker, EvRequeue, tx, height, 0, 0)
}

// Commit records a successful commit with its serialization version.
func Commit(node int16, worker int, tx *types.Transaction, version types.Version, height uint64) {
	if r := active.Load(); r != nil {
		r.record(worker, Event{Kind: EvCommit, Node: node, Tx: tx.Hash(), Sender: tx.From, Version: version, Height: height})
	}
}

// Seal records the transaction's final position in the assembled block.
func Seal(node int16, tx *types.Transaction, version types.Version, position int, height uint64) {
	if r := active.Load(); r != nil {
		r.record(WorkerSystem, Event{
			Kind: EvSeal, Node: node, Tx: tx.Hash(), Sender: tx.From,
			Version: version, Aux: uint64(position), Height: height,
		})
	}
}

// Drop records a permanently abandoned transaction. retryExhausted
// distinguishes retry-budget exhaustion from outright invalidity.
func Drop(node int16, worker int, tx *types.Transaction, height uint64, retryExhausted bool) {
	var aux uint64
	if retryExhausted {
		aux = 1
	}
	txEvent(node, worker, EvDrop, tx, height, aux, 0)
}

// Assign records a validator lane's claim of tx: writer is 1 + the block
// position of the newest writer its reads wait on (0 = none), reads how many
// of its reads have a writer.
func Assign(node int16, lane int, tx *types.Transaction, writer, reads int, height uint64) {
	txEvent(node, ValidatorLane(lane), EvAssign, tx, height, uint64(writer), uint64(reads))
}

// ReplayStart records the beginning of the validator's re-execution of tx.
func ReplayStart(node int16, lane int, tx *types.Transaction, height uint64) {
	txEvent(node, ValidatorLane(lane), EvReplayStart, tx, height, 0, 0)
}

// ReplayEnd records the end of the validator's re-execution of tx.
func ReplayEnd(node int16, lane int, tx *types.Transaction, height uint64) {
	txEvent(node, ValidatorLane(lane), EvReplayEnd, tx, height, 0, 0)
}

// Reuse records validator lane taking the result of tx from the sibling block
// that executed it first, where it sat at index leaderIndex.
func Reuse(node int16, lane int, tx *types.Transaction, leaderIndex int, height uint64) {
	txEvent(node, ValidatorLane(lane), EvReuse, tx, height, uint64(leaderIndex), 0)
}

// Verify records the applier's profile check outcome for tx.
func Verify(node int16, tx *types.Transaction, pass bool, height uint64) {
	kind := EvVerifyFail
	if pass {
		kind = EvVerifyPass
	}
	txEvent(node, WorkerSystem, kind, tx, height, 0, 0)
}
