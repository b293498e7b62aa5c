// The block stages: every stage a block passes through — proposer seal,
// network transfer, pipeline parent-wait and queue, validator prepare /
// execute / verify / commit, and the state-commit tail — recorded as one
// EvStage event per (stage, block, node). The events of one block share a
// trace id that is a function of its hash, so they stitch across nodes with
// nothing but the send time carried on the wire.
package trace

import (
	"encoding/binary"
	"slices"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// Stage enumerates the lifecycle stages of one block.
type Stage uint8

const (
	stageInvalid Stage = iota
	// StageSeal: the proposer packs and seals the block (core.Propose).
	StageSeal
	// StageTransfer: network propagation from broadcast to inbox delivery.
	StageTransfer
	// StageParentWait: the block sat parked in the pipeline because its
	// parent had not validated yet.
	StageParentWait
	// StageQueue: submission (or parent release) to validation start.
	StageQueue
	// StagePrepare: the writer index of the block's profile, and a
	// follower's plan of which sibling results it may take.
	StagePrepare
	// StageExecute: parallel transaction re-execution across the lanes.
	StageExecute
	// StageVerify: the applier — a block-order walk of the lanes' checked
	// results, after the last lane returned.
	StageVerify
	// StageCommit: header commitment checks + state commit + root compare.
	StageCommit
	// StageStateCommit: the CommitAndRoot tail inside seal or commit.
	StageStateCommit
	// StageInsert: chain insertion milestone (zero-duration mark).
	StageInsert
	// StageReject: the pipeline sent the block a failed outcome
	// (zero-duration mark).
	StageReject
)

var stageNames = [...]string{
	stageInvalid:     "invalid",
	StageSeal:        "seal",
	StageTransfer:    "transfer",
	StageParentWait:  "parent_wait",
	StageQueue:       "queue_wait",
	StagePrepare:     "prepare",
	StageExecute:     "execute",
	StageVerify:      "verify",
	StageCommit:      "commit",
	StageStateCommit: "state_commit",
	StageInsert:      "insert",
	StageReject:      "reject",
}

// stageHist is the latency histogram each stage's interval feeds while
// telemetry is enabled; stages without one are recorded as events only.
var stageHist = [len(stageNames)]*telemetry.Histogram{
	StageSeal:    telemetry.ProposerBlockSeconds,
	StagePrepare: telemetry.PipelinePrepareSeconds,
	StageExecute: telemetry.PipelineExecuteSeconds,
	StageVerify:  telemetry.PipelineValidateSeconds,
	StageCommit:  telemetry.PipelineCommitSeconds,
}

// String returns the stage's wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// TraceID is the id every stage event of one block carries, on every node:
// the top 48 bits of its hash, which a JSON reader holds exactly.
func TraceID(block types.Hash) uint64 { return binary.BigEndian.Uint64(block[:8]) >> 16 }

// RecordSpan records one completed stage of a block. Safe on nil.
func (r *Recorder) RecordSpan(node string, stage Stage, block types.Hash, height uint64, start, end time.Time) {
	if r != nil {
		r.recordStage(Event{Stage: stage, Worker: r.nodeID(node), Tx: block, Height: height}, start, end)
	}
}

// recordStage stamps and stores one stage event lasting start to end.
func (r *Recorder) recordStage(ev Event, start, end time.Time) {
	ev.Kind, ev.Seq = EvStage, r.seq.Add(1)
	ev.TS, ev.Aux = start.Sub(r.start).Nanoseconds(), uint64(end.Sub(start).Nanoseconds())
	r.stages.record(ev)
}

// nodeID returns the index of node in the node table, adding it on first
// use: a stage event holds its nodes as these indices, which keeps every
// Event one size.
func (r *Recorder) nodeID(node string) int16 {
	r.nodeMu.Lock()
	defer r.nodeMu.Unlock()
	if i := slices.Index(r.nodes, node); i >= 0 {
		return int16(i)
	}
	r.nodes = append(r.nodes, node)
	return int16(len(r.nodes) - 1)
}

// Nodes returns the node table: a stage event ran on Nodes()[ev.Worker] and
// was sent from Nodes()[ev.From]. The table only grows, so the slice
// stays valid for every event read before the call. Safe on nil.
func (r *Recorder) Nodes() []string {
	if r == nil {
		return nil
	}
	r.nodeMu.Lock()
	defer r.nodeMu.Unlock()
	return r.nodes
}

// Delivered records the transfer stage receiver-side: the block arrived on
// node `to` from node `from`, which sent it at sentUnixNano on its own wall
// clock (in-process both clocks are one clock; across machines the usual NTP
// caveats apply, and a transfer that ends before it starts clamps to zero).
// A zero send time — the sender recorded nothing — is ignored. Safe on nil.
func (r *Recorder) Delivered(from, to string, height uint64, block types.Hash, sentUnixNano int64) {
	if r == nil || sentUnixNano == 0 {
		return
	}
	end := time.Now()
	start := time.Unix(0, sentUnixNano)
	if start.After(end) {
		start = end
	}
	r.recordStage(Event{Stage: StageTransfer, Worker: r.nodeID(to), From: r.nodeID(from), Tx: block, Height: height}, start, end)
}

// Spans returns the buffered stage events, in the order they were recorded.
func (r *Recorder) Spans() []Event {
	if r == nil {
		return nil
	}
	return r.stages.snapshot(nil)
}

// SpansFor returns the buffered stage events of one block, in recorded order.
func (r *Recorder) SpansFor(block types.Hash) []Event {
	return slices.DeleteFunc(r.Spans(), func(ev Event) bool { return ev.Tx != block })
}

// at converts a TS back to a time on the recorder's clock.
func (r *Recorder) at(ts int64) time.Time { return r.start.Add(time.Duration(ts)) }

// Phase is one in-flight stage measurement. The zero Phase (no recorder and
// no histogram to feed) makes End and Drop no-ops; it is a value type, so
// beginning and ending one allocates nothing.
type Phase struct {
	r      *Recorder
	node   string
	height uint64
	start  time.Time
	stage  Stage
}

// Begin starts timing one stage of the block at height on node. Safe on nil:
// with no recorder the phase still feeds the stage's histogram while
// telemetry is enabled, and is the zero Phase otherwise.
func (r *Recorder) Begin(node string, stage Stage, height uint64) Phase {
	if r == nil && (stageHist[stage] == nil || !telemetry.Enabled()) {
		return Phase{}
	}
	return Phase{r: r, node: node, height: height, start: time.Now(), stage: stage}
}

// End completes the stage: one clock read closes the interval, which is
// observed by the stage's histogram and recorded as the block's stage event.
// The hash comes late because a sealing block has none until its header is
// complete.
func (p Phase) End(block types.Hash) {
	if p.stage == stageInvalid {
		return
	}
	end := time.Now()
	if h := stageHist[p.stage]; h != nil {
		h.ObserveDuration(end.Sub(p.start))
	}
	p.r.RecordSpan(p.node, p.stage, block, p.height, p.start, end)
}

// Drop completes the stage of an attempt that is being rejected: the
// histogram still observes it, no event is recorded.
func (p Phase) Drop() {
	p.r = nil
	p.End(types.Hash{})
}
