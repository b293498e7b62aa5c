// Package trace is BlockPilot's block-lifecycle causal tracer: per-block
// spans covering every stage a block passes through — proposer seal, network
// transfer, pipeline parent-wait and queue, validator prepare / execute /
// verify / commit, and the state-commit tail — stitched together across
// nodes by a propagated trace context (a TraceID / parent-span header
// attached to block messages in internal/network; in-process today, the
// header is three integers so a TCP transport can carry it verbatim).
//
// On top of the span store, critical.go extracts the critical path per block
// (which stage chain bounded end-to-end latency) and attributes every
// non-work gap to a named stall bucket with a share of the total; the
// collector's telemetry.Slot serves both as /trace/blocks and
// /trace/critical-path, and render.go draws the per-block waterfall that
// `bpinspect crit` and cmd/blockpilot print.
//
// The package is also the one place a phase's duration is measured: Begin /
// End read the clock once per boundary and hand that single interval to the
// stage's telemetry histogram (stageHist) and to the span store, so the two
// can never disagree.
//
// Design constraints (mirroring internal/flight, ISSUE 6):
//
//   - The disabled path (the default: no collector, telemetry off) is one
//     atomic pointer load, one atomic bool load and a nil check: 0
//     allocations, within 100× of a bare atomic load — enforced by
//     TestDisabledPathBudget, run by `make ci` (obs-budget).
//   - Instrumented packages resolve a collector per call site with
//     Resolve(instance): an explicitly injected *Collector (the cluster
//     simulator gives every run a private one so parallel runs never share
//     span state) or, when nil, the process-wide installed collector.
//     Every Collector method is nil-safe, so call sites never branch.
//   - No dependencies beyond the standard library, internal/types and
//     internal/telemetry.
package trace

import (
	"net/http"
	"sync"
	"sync/atomic"
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
	// StagePrepare: dependency-graph build + gas-LPT scheduling.
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
}

// stageHist is the latency histogram each stage's interval feeds while
// telemetry is enabled; stages without one are stored as spans only.
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

// Context is the propagated trace header attached to block messages. It is
// three integers so a wire transport can serialize it without caring about
// in-process types: the trace id binding every span of one block together,
// the sending side's root span (the seal span, when known), and the wall
// clock at send time — the receiving side closes the transfer span against
// its own clock (in-process both clocks are one clock; across machines the
// usual NTP caveats apply and negative transfers clamp to zero).
type Context struct {
	TraceID      uint64 `json:"trace_id"`
	ParentSpan   uint64 `json:"parent_span"`
	SentUnixNano int64  `json:"sent_unix_nano"`
}

// Span is one completed stage of one block on one node.
type Span struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64 // causal parent span (0 = root)
	Stage   Stage
	Node    string // the node the stage ran on
	From    string // StageTransfer only: the sending node
	Height  uint64
	Block   types.Hash
	Start   time.Time
	End     time.Time
}

// Dur returns the span's duration (clamped to ≥ 0: a transfer span's start
// comes from the sender's wall clock).
func (s *Span) Dur() time.Duration {
	d := s.End.Sub(s.Start)
	if d < 0 {
		return 0
	}
	return d
}

// binding ties a block hash to its trace: the shared trace id and the root
// (seal) span if one was recorded. It lives exactly as long as the ring
// buffers a span of its block (live counts them), so the table is bounded by
// the ring's capacity.
type binding struct {
	traceID  uint64
	rootSpan uint64
	live     int
}

// DefaultCapacity bounds the span ring (spans, not bytes). Block spans are
// coarse — ~10 per (block, node) — so the default covers thousands of
// blocks before eviction.
const DefaultCapacity = 16384

// Collector is a fixed-capacity ring of completed block spans plus the
// block → trace-id binding table. All methods are safe on a nil receiver
// (no-ops), which is what keeps instrumentation call sites branch-free.
type Collector struct {
	seq atomic.Uint64 // span + trace id source

	mu      sync.Mutex
	spans   telemetry.Ring[Span]
	byBlock map[types.Hash]*binding
}

// NewCollector builds a collector without installing it (the cluster
// simulator keeps one per run). capacity ≤ 0 selects DefaultCapacity.
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Collector{
		spans:   telemetry.NewRing[Span](capacity),
		byBlock: make(map[types.Hash]*binding),
	}
}

// active is the installed process-wide collector; nil = tracing disabled.
var active telemetry.Slot[Collector]

// The /trace/ endpoints, served from the installed collector. ?node= keeps
// one node's paths and ?n= the newest n.
func init() {
	active.Serve("block tracer", "-trace", map[string]telemetry.View[Collector]{
		// Per-(block, node) critical paths, or with ?spans=1 the raw span ring.
		"/trace/blocks": func(c *Collector, req *http.Request) (any, error) {
			node := req.URL.Query().Get("node")
			if req.URL.Query().Get("spans") == "1" {
				views := []SpanView{}
				for _, sp := range c.Spans() {
					if node == "" || sp.Node == node {
						views = append(views, sp.View())
					}
				}
				return views, nil
			}
			paths := c.Paths(node)
			if n := telemetry.QueryN(req); n > 0 && len(paths) > n {
				paths = paths[len(paths)-n:]
			}
			return paths, nil
		},
		// The sliding-window summary over the newest n paths.
		"/trace/critical-path": func(c *Collector, req *http.Request) (any, error) {
			return c.Window(telemetry.QueryN(req), req.URL.Query().Get("node")), nil
		},
	})
}

// Enable installs a fresh DefaultCapacity collector (replacing any previous
// one) and returns it.
func Enable() *Collector {
	c := NewCollector(0)
	active.Store(c)
	return c
}

// Disable uninstalls the collector, returning it (if any) so buffered spans
// can still be exported.
func Disable() *Collector { return active.Swap(nil) }

// Active returns the installed collector, or nil when disabled.
func Active() *Collector { return active.Load() }

// Resolve returns the collector a call site should record into: the
// explicitly injected one when non-nil, the installed process-wide one
// otherwise. With neither, the nil result makes every method a no-op —
// this load + nil check is the entire disabled path.
func Resolve(c *Collector) *Collector {
	if c != nil {
		return c
	}
	return active.Load()
}

// append stores one span of b's block in the ring and drops the binding of
// the block whose last buffered span it overwrote. Caller holds mu.
func (c *Collector) append(b *binding, sp Span) {
	b.live++
	if old, evicted := c.spans.Push(sp); evicted {
		if ob := c.byBlock[old.Block]; ob.live > 1 {
			ob.live--
		} else {
			delete(c.byBlock, old.Block)
		}
	}
}

// RecordSpan records one completed stage of a block. Safe on nil.
func (c *Collector) RecordSpan(node string, stage Stage, block types.Hash, height uint64, start, end time.Time) {
	if c == nil {
		return
	}
	id := c.seq.Add(1)
	c.mu.Lock()
	b := c.byBlock[block]
	if b == nil {
		b = &binding{traceID: c.seq.Add(1)}
		c.byBlock[block] = b
	}
	sp := Span{
		TraceID: b.traceID, SpanID: id, Parent: b.rootSpan,
		Stage: stage, Node: node, Height: height, Block: block,
		Start: start, End: end,
	}
	if stage == StageSeal {
		b.rootSpan = id
		sp.Parent = 0
	}
	c.append(b, sp)
	c.mu.Unlock()
}

// Phase is one in-flight stage measurement. The zero Phase (no collector and
// no histogram to feed) makes End and Drop no-ops; it is a value type, so
// beginning and ending one allocates nothing.
type Phase struct {
	c      *Collector
	node   string
	height uint64
	start  time.Time
	stage  Stage
}

// Begin starts timing one stage of the block at height on node. Safe on nil:
// with no collector the phase still feeds the stage's histogram while
// telemetry is enabled, and is the zero Phase otherwise.
func (c *Collector) Begin(node string, stage Stage, height uint64) Phase {
	if c == nil && (stageHist[stage] == nil || !telemetry.Enabled()) {
		return Phase{}
	}
	return Phase{c: c, node: node, height: height, start: time.Now(), stage: stage}
}

// End completes the stage: one clock read closes the interval, which is
// observed by the stage's histogram and stored as the block's span. The hash
// comes late because a sealing block has none until its header is complete.
func (p Phase) End(block types.Hash) {
	if p.stage == stageInvalid {
		return
	}
	end := time.Now()
	if h := stageHist[p.stage]; h != nil {
		h.ObserveDuration(end.Sub(p.start))
	}
	p.c.RecordSpan(p.node, p.stage, block, p.height, p.start, end)
}

// Drop completes the stage of an attempt that is being rejected: the
// histogram still observes it, no span is stored.
func (p Phase) Drop() {
	p.c = nil
	p.End(types.Hash{})
}

// ContextFor returns the propagated trace header for a block about to be
// broadcast, stamping the send time. A block with no buffered span yet (it
// was not sealed here) gets a fresh trace id that the first Delivered binds.
// Safe on nil (returns the zero Context, which receivers ignore).
func (c *Collector) ContextFor(block types.Hash) Context {
	if c == nil {
		return Context{}
	}
	var ctx Context
	c.mu.Lock()
	if b := c.byBlock[block]; b != nil {
		ctx = Context{TraceID: b.traceID, ParentSpan: b.rootSpan}
	} else {
		ctx.TraceID = c.seq.Add(1)
	}
	c.mu.Unlock()
	ctx.SentUnixNano = time.Now().UnixNano()
	return ctx
}

// Delivered records the transfer span receiver-side: the block identified
// by ctx arrived on node `to` from node `from`. The receiver adopts the
// sender's trace id so cross-node spans stitch. A zero ctx is ignored.
// Safe on nil.
func (c *Collector) Delivered(from, to string, height uint64, block types.Hash, ctx Context) {
	if c == nil || ctx.TraceID == 0 {
		return
	}
	end := time.Now()
	start := time.Unix(0, ctx.SentUnixNano)
	if start.After(end) {
		start = end
	}
	id := c.seq.Add(1)
	c.mu.Lock()
	b := c.byBlock[block]
	if b == nil {
		b = &binding{traceID: ctx.TraceID, rootSpan: ctx.ParentSpan}
		c.byBlock[block] = b
	}
	c.append(b, Span{
		TraceID: b.traceID, SpanID: id, Parent: ctx.ParentSpan,
		Stage: StageTransfer, Node: to, From: from,
		Height: height, Block: block, Start: start, End: end,
	})
	c.mu.Unlock()
}

// Spans returns the buffered spans oldest-first (ring insertion order).
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans.AppendTo(make([]Span, 0, c.spans.Len()))
}

// SpansFor returns the buffered spans of one block, oldest-first.
func (c *Collector) SpansFor(block types.Hash) []Span {
	if c == nil {
		return nil
	}
	var out []Span
	for _, sp := range c.Spans() {
		if sp.Block == block {
			out = append(out, sp)
		}
	}
	return out
}

// Total returns how many spans were ever recorded (including evicted).
func (c *Collector) Total() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans.Total()
}

// Len returns how many spans are currently buffered.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans.Len()
}
