package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"blockpilot/internal/types"
)

func hash(b byte) types.Hash {
	var h types.Hash
	h[0] = b
	return h
}

// synthBlock records a full synthetic lifecycle for one block on one
// validator, with deliberate gaps between stages, and returns the epoch.
func synthBlock(c *Recorder, blk types.Hash, height uint64, node string, t0 time.Time) {
	at := func(ms int64) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// seal [0,4) on the proposer
	c.RecordSpan("proposer", StageSeal, blk, height, at(0), at(4))
	// transfer from 11ms: a broadcast_wait gap after seal
	c.Delivered("proposer", node, height, blk, at(11).UnixNano())
	// queue [14,15): 1ms inbox_wait gap — then the validation chain
	c.RecordSpan(node, StageQueue, blk, height, at(14), at(15))
	c.RecordSpan(node, StagePrepare, blk, height, at(16), at(18))
	c.RecordSpan(node, StageExecute, blk, height, at(18), at(26))
	c.RecordSpan(node, StageVerify, blk, height, at(19), at(27)) // overlaps execute
	c.RecordSpan(node, StageCommit, blk, height, at(27), at(30))
	c.RecordSpan(node, StageStateCommit, blk, height, at(28), at(30))
}

// The Delivered end time is time.Now(), so the synthetic transfer span ends
// "now" — far beyond the at(...) timeline. Re-record it directly for tests
// needing exact tiling.
func synthExact(c *Recorder, blk types.Hash, height uint64, node string, t0 time.Time) {
	at := func(ms int64) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	c.RecordSpan("proposer", StageSeal, blk, height, at(0), at(4))
	c.RecordSpan(node, StageTransfer, blk, height, at(11), at(13))
	c.RecordSpan(node, StageQueue, blk, height, at(14), at(15))
	c.RecordSpan(node, StagePrepare, blk, height, at(16), at(18))
	c.RecordSpan(node, StageExecute, blk, height, at(18), at(26))
	c.RecordSpan(node, StageVerify, blk, height, at(19), at(27))
	c.RecordSpan(node, StageCommit, blk, height, at(27), at(30))
	c.RecordSpan(node, StageStateCommit, blk, height, at(28), at(30))
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var c *Recorder
	c.RecordSpan("n", StageCommit, hash(1), 1, time.Now(), time.Now())
	c.Begin("n", StagePrepare, 1).End(hash(1))
	c.Begin("n", StageSeal, 1).End(hash(1))
	c.Begin("n", StageCommit, 1).Drop()
	c.Delivered("a", "b", 1, hash(1), time.Now().UnixNano())
	if got := c.Spans(); got != nil {
		t.Fatalf("nil recorder returned spans %v", got)
	}
	if got := c.Events(); got != nil || c.Total() != 0 {
		t.Fatalf("nil recorder returned events %v (total %d)", got, c.Total())
	}
	if _, ok := c.PathFor(hash(1), "n"); ok {
		t.Fatal("nil recorder returned a path")
	}
	if w := c.Window(0, ""); w.Blocks != 0 {
		t.Fatalf("nil recorder window has %d blocks", w.Blocks)
	}
}

func TestTraceIDStitchesAcrossNodes(t *testing.T) {
	c := NewRecorder()
	blk := hash(7)
	c.RecordSpan("proposer", StageSeal, blk, 3, time.Now(), time.Now())
	c.Delivered("proposer", "v0", 3, blk, time.Now().UnixNano())
	c.RecordSpan("v0", StageCommit, blk, 3, time.Now(), time.Now())
	spans := c.SpansFor(blk)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if TraceID(blk) == 0 || TraceID(blk) == TraceID(hash(8)) {
		t.Fatalf("trace id %d does not tell block 7 from block 8", TraceID(blk))
	}
	for _, sp := range spans {
		if v := c.spanView(&sp, c.Nodes()); v.TraceID != TraceID(blk) {
			t.Fatalf("span %s has trace id %d, want %d", sp.Stage, v.TraceID, TraceID(blk))
		}
	}
	var transfer *Event
	for i := range spans {
		if spans[i].Stage == StageTransfer {
			transfer = &spans[i]
		}
	}
	if transfer == nil {
		t.Fatal("no transfer span recorded")
	}
	if v := c.spanView(transfer, c.Nodes()); v.From != "proposer" || v.Node != "v0" {
		t.Fatalf("transfer endpoints %q → %q, want proposer → v0", v.From, v.Node)
	}
}

// A receiver that records a block in a recorder of its own, with nothing
// but the send time from the sender, carries the sender's trace id; a
// message that carries no send time records no transfer.
func TestDeliveredAdoptsSenderTraceID(t *testing.T) {
	sender, receiver := NewRecorder(), NewRecorder()
	blk := hash(9)
	sender.RecordSpan("proposer", StageSeal, blk, 2, time.Now(), time.Now())
	receiver.Delivered("proposer", "v1", 2, blk, 0)
	receiver.Delivered("proposer", "v1", 2, blk, time.Now().UnixNano())
	receiver.RecordSpan("v1", StageQueue, blk, 2, time.Now(), time.Now())
	seal := sender.SpansFor(blk)
	want := sender.spanView(&seal[0], sender.Nodes()).TraceID
	got := receiver.SpansFor(blk)
	if len(got) != 2 {
		t.Fatalf("receiver holds %d spans, want transfer + queue", len(got))
	}
	for _, sp := range got {
		if v := receiver.spanView(&sp, receiver.Nodes()); v.TraceID != want {
			t.Fatalf("span %s trace id %d, want the sender's %d", sp.Stage, v.TraceID, want)
		}
	}
}

func TestPathForTilesTo100Percent(t *testing.T) {
	c := NewRecorder()
	t0 := time.Now()
	blk := hash(1)
	synthExact(c, blk, 5, "v0", t0)

	p, ok := c.PathFor(blk, "v0")
	if !ok {
		t.Fatal("no path for committed block")
	}
	if !p.Complete {
		t.Fatalf("path incomplete, missing %v", p.Missing)
	}
	if p.Total != 30*time.Millisecond {
		t.Fatalf("total %v, want 30ms", p.Total)
	}
	var share float64
	var sum time.Duration
	for _, seg := range p.Segments {
		share += seg.Share
		sum += seg.Dur
	}
	if math.Abs(share-1.0) > 1e-9 {
		t.Fatalf("segment shares sum to %v, want 1.0 (segments %+v)", share, p.Segments)
	}
	if sum != p.Total {
		t.Fatalf("segment durations sum to %v, want %v", sum, p.Total)
	}
	// execute [18,26) is the longest work segment → the critical stage.
	if p.Critical != "execute" {
		t.Fatalf("critical %q, want execute", p.Critical)
	}
	if p.CommitTail != 2*time.Millisecond {
		t.Fatalf("commit tail %v, want 2ms", p.CommitTail)
	}
	// Named stall gaps must be present.
	names := map[string]bool{}
	for _, seg := range p.Segments {
		names[seg.Name] = true
	}
	for _, want := range []string{"broadcast_wait", "inbox_wait", "precheck", "queue_wait", "seal", "transfer", "prepare", "execute", "verify", "commit"} {
		if !names[want] {
			t.Fatalf("segment %q missing from %v", want, names)
		}
	}
	// verify overlaps execute: its tiled slice is only [26,27).
	for _, seg := range p.Segments {
		if seg.Name == "verify" && seg.Dur != 1*time.Millisecond {
			t.Fatalf("verify tiled slice %v, want the 1ms non-overlapped remainder", seg.Dur)
		}
	}
}

func TestPathForIncompleteChain(t *testing.T) {
	c := NewRecorder()
	t0 := time.Now()
	blk := hash(2)
	// Commit without prepare/execute/verify/queue.
	c.RecordSpan("v0", StageCommit, blk, 1, t0, t0.Add(time.Millisecond))
	p, ok := c.PathFor(blk, "v0")
	if !ok {
		t.Fatal("expected a (partial) path")
	}
	if p.Complete {
		t.Fatal("path reported complete with four stages missing")
	}
	if len(p.Missing) != 4 {
		t.Fatalf("missing %v, want 4 stages", p.Missing)
	}
	if _, ok := c.PathFor(blk, "v1"); ok {
		t.Fatal("path exists for a node that never committed the block")
	}
}

// With two buffered validation attempts (duplicate delivery), the path must
// follow the attempt of the last commit and stay monotonic.
func TestPathForPicksLastAttempt(t *testing.T) {
	c := NewRecorder()
	t0 := time.Now()
	blk := hash(3)
	at := func(ms int64) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for attempt := int64(0); attempt < 2; attempt++ {
		base := attempt * 100
		c.RecordSpan("v0", StageQueue, blk, 4, at(base), at(base+1))
		c.RecordSpan("v0", StagePrepare, blk, 4, at(base+1), at(base+2))
		c.RecordSpan("v0", StageExecute, blk, 4, at(base+2), at(base+8))
		c.RecordSpan("v0", StageVerify, blk, 4, at(base+3), at(base+9))
		c.RecordSpan("v0", StageCommit, blk, 4, at(base+9), at(base+10))
	}
	p, ok := c.PathFor(blk, "v0")
	if !ok || !p.Complete {
		t.Fatalf("ok=%v complete=%v missing=%v", ok, p.Complete, p.Missing)
	}
	if !p.Start.Equal(at(100)) {
		t.Fatalf("path start %v, want the second attempt's queue start", p.Start.Sub(t0))
	}
	if p.Total != 10*time.Millisecond {
		t.Fatalf("total %v, want 10ms", p.Total)
	}
}

func TestWindowAggregation(t *testing.T) {
	c := NewRecorder()
	t0 := time.Now()
	synthExact(c, hash(1), 1, "v0", t0)
	synthExact(c, hash(2), 2, "v0", t0.Add(time.Second))
	synthExact(c, hash(3), 3, "v1", t0.Add(2*time.Second))

	w := c.Window(0, "")
	if w.Blocks != 3 || w.Complete != 3 {
		t.Fatalf("window blocks=%d complete=%d, want 3/3", w.Blocks, w.Complete)
	}
	if math.Abs(w.WorkShare+w.StallShare-1.0) > 1e-9 {
		t.Fatalf("work %v + stall %v != 1", w.WorkShare, w.StallShare)
	}
	if w.Critical != "execute" {
		t.Fatalf("window critical %q, want execute", w.Critical)
	}

	if w := c.Window(0, "v1"); w.Blocks != 1 {
		t.Fatalf("node filter returned %d blocks, want 1", w.Blocks)
	}
	if w := c.Window(2, ""); w.Blocks != 2 {
		t.Fatalf("window n=2 returned %d blocks, want 2", w.Blocks)
	}
}

// TestRingEviction: the stage ring keeps the newest stages, and per-
// transaction traffic, which has rings of its own, evicts none of them.
func TestRingEviction(t *testing.T) {
	c := newRecorder(1, 2, 4)
	install(t, c)
	t0 := time.Now()
	for i := 0; i < 10; i++ {
		c.RecordSpan("n", StageCommit, hash(byte(i)), uint64(i), t0, t0)
		Commit(0, mktx(byte(i), 0), 1, uint64(i))
	}
	if n := len(c.Events()); n != 4+2 {
		t.Fatalf("%d events buffered, want stage capacity 4 + ring capacity 2", n)
	}
	if c.Total() != 20 {
		t.Fatalf("total %d, want 20", c.Total())
	}
	spans := c.Spans()
	if spans[0].Height != 6 || spans[3].Height != 9 {
		t.Fatalf("ring order wrong: heights %d..%d, want 6..9", spans[0].Height, spans[3].Height)
	}
}

// TestEnableDisable checks the one install slot from both sides: the stage
// writers resolve to the installed recorder, and the transaction events it
// buffered stay readable after Disable.
func TestEnableDisable(t *testing.T) {
	prev := Active()
	t.Cleanup(func() { active.Store(prev) })

	t.Run("stages", func(t *testing.T) {
		c := Enable()
		if Active() != c {
			t.Fatal("Enable did not install the recorder")
		}
		if Resolve(nil) != c {
			t.Fatal("Resolve(nil) did not fall back to the installed recorder")
		}
		other := NewRecorder()
		if Resolve(other) != other {
			t.Fatal("Resolve must prefer the injected recorder")
		}
		if got := Disable(); got != c {
			t.Fatalf("Disable returned %p, want %p", got, c)
		}
		if Active() != nil {
			t.Fatal("still enabled after Disable")
		}
	})

	t.Run("events", func(t *testing.T) {
		r := Enable()
		if Active() != r {
			t.Fatal("Enable did not install the recorder")
		}
		Commit(0, mktx(9, 9), 1, 1)
		if got := Disable(); got != r {
			t.Fatalf("Disable returned %p, want the installed recorder %p", got, r)
		}
		if Active() != nil {
			t.Fatal("Disable left a recorder installed")
		}
		// The returned recorder still serves its buffered events.
		if r.Total() != 1 {
			t.Fatalf("post-Disable Total = %d, want 1", r.Total())
		}
	})
}

func TestRenderers(t *testing.T) {
	c := NewRecorder()
	synthExact(c, hash(1), 5, "v0", time.Now())
	p, _ := c.PathFor(hash(1), "v0")
	out := RenderPathView(p)
	for _, want := range []string{"block 5", "node=v0", "critical=execute", "(stall)", "state_commit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
	w := c.Window(0, "")
	wout := RenderWindowView(w)
	for _, want := range []string{"1 block(s)", "critical stage: execute", "work ", "stall "} {
		if !strings.Contains(wout, want) {
			t.Fatalf("window render missing %q:\n%s", want, wout)
		}
	}
}

func TestSynthBlockDeliveredPath(t *testing.T) {
	// Delivered uses the real clock for the transfer end; the path must
	// still assemble and clamp sensibly.
	c := NewRecorder()
	blk := hash(8)
	synthBlock(c, blk, 2, "v0", time.Now().Add(-40*time.Millisecond))
	p, ok := c.PathFor(blk, "v0")
	if !ok {
		t.Fatal("no path")
	}
	if !p.Complete {
		t.Fatalf("incomplete: %v", p.Missing)
	}
}
