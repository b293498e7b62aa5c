// Critical-path extraction and stall attribution: per (block, node), tile
// the end-to-end latency — seal through commit — into contiguous segments,
// each either a recorded work stage or a named stall gap between stages,
// so the segment shares always sum to 100% of the total. The per-window
// summary aggregates segment shares across the last N blocks and names the
// stage chain that bounded latency.
package trace

import (
	"slices"
	"sort"
	"time"

	"blockpilot/internal/types"
)

// SegmentKind classifies a segment: recorded work vs attributed stall.
type SegmentKind string

const (
	KindWork  SegmentKind = "work"
	KindStall SegmentKind = "stall"
)

// Segment is one contiguous slice of a block's end-to-end latency. It is its
// own JSON wire form: durations encode as integer nanoseconds.
type Segment struct {
	Name  string        `json:"name"`
	Kind  SegmentKind   `json:"kind"`
	Dur   time.Duration `json:"dur_ns"`
	Share float64       `json:"share"` // fraction of the block's total latency
}

// BlockPath is one block's tiled lifecycle on one node, and the JSON wire
// form /trace/blocks serves.
type BlockPath struct {
	Node     string        `json:"node"`
	Height   uint64        `json:"height"`
	Block    types.Hash    `json:"block"`
	TraceID  uint64        `json:"trace_id"`
	Start    time.Time     `json:"-"`
	End      time.Time     `json:"-"`
	Total    time.Duration `json:"total_ns"`
	Complete bool          `json:"complete"`          // every required validation stage was found
	Missing  []string      `json:"missing,omitempty"` // required stages without a span (when !Complete)
	Critical string        `json:"critical"`          // the work segment with the largest share
	// CommitTail is the state-commit sub-span inside the commit stage (the
	// Merkle/commit tail) — informational, not a tiling segment.
	CommitTail time.Duration `json:"commit_tail_ns,omitempty"`
	Segments   []Segment     `json:"segments"`
}

// requiredStages is the validation chain every committed block must carry,
// in causal order. Seal and transfer are contextual (a proposer's own block
// never crosses the network; a synced block has no local seal).
var requiredStages = [...]Stage{StageQueue, StagePrepare, StageExecute, StageVerify, StageCommit}

// stall reports whether a stage's own duration counts as stall rather than
// work (time the block spent waiting, not being processed).
func (s Stage) stall() bool { return s == StageParentWait || s == StageQueue }

// gapName labels the stall bucket for un-spanned time immediately before a
// stage: what the block was waiting on for that gap to exist.
func gapName(next Stage) string {
	switch next {
	case StageTransfer:
		return "broadcast_wait"
	case StageParentWait, StageQueue:
		return "inbox_wait"
	case StagePrepare:
		return "precheck"
	default:
		return "sched_gap"
	}
}

// PathFor assembles the critical path of one block on one node from its
// stage events. The second return is false when the node has no commit
// stage for the block (it never committed there). When some earlier stage is
// missing, Complete is false and the partial path lists the gaps in Missing.
//
// With several validation attempts buffered (duplicate delivery, crash
// replay), the path follows the attempt that produced the last commit:
// walking backward from it, each stage picks the latest candidate starting
// no later than its successor, which keeps the chain monotonic.
func (r *Recorder) PathFor(block types.Hash, node string) (BlockPath, bool) {
	stages := r.SpansFor(block)
	nodes := r.Nodes() // after the events it names
	if id := slices.Index(nodes, node); id >= 0 {
		return r.pathFor(stages, nodes, int16(id))
	}
	return BlockPath{}, false
}

// pathFor is PathFor over stages, the buffered stage events of one block,
// for the node at index node of the node table nodes.
func (r *Recorder) pathFor(stages []Event, nodes []string, node int16) (BlockPath, bool) {
	end := func(ev *Event) int64 { return ev.TS + max(ev.Dur(), 0) }

	var commit *Event
	for i := range stages {
		ev := &stages[i]
		if ev.Stage == StageCommit && ev.Worker == node && (commit == nil || end(ev) > end(commit)) {
			commit = ev
		}
	}
	if commit == nil {
		return BlockPath{}, false
	}

	path := BlockPath{Node: nodes[node], Height: commit.Height, Block: commit.Tx, TraceID: TraceID(commit.Tx), Complete: true}

	// pick returns the latest event of `stage` (on this node, unless the
	// stage belongs to another node) starting no later than limit.
	pick := func(stage Stage, limit int64) *Event {
		var best *Event
		for i := range stages {
			ev := &stages[i]
			if ev.Stage == stage && (stage == StageSeal || ev.Worker == node) && ev.TS <= limit &&
				(best == nil || ev.TS > best.TS) {
				best = ev
			}
		}
		return best
	}

	// Backward walk over the required validation chain.
	chain := []*Event{commit}
	next := commit
	for i := len(requiredStages) - 2; i >= 0; i-- {
		ev := pick(requiredStages[i], next.TS)
		if ev == nil {
			path.Complete = false
			path.Missing = append(path.Missing, requiredStages[i].String())
			continue
		}
		chain = append(chain, ev)
		next = ev
	}
	// Contextual prefix: parent-wait, transfer, seal — whichever exist.
	for _, stage := range []Stage{StageParentWait, StageTransfer, StageSeal} {
		if ev := pick(stage, next.TS); ev != nil {
			chain = append(chain, ev)
			next = ev
		}
	}
	slices.Reverse(chain) // collected newest-first; tile oldest-first

	origin := chain[0].TS
	cursor := origin
	for _, ev := range chain {
		if gap := ev.TS - cursor; gap > 0 {
			path.Segments = append(path.Segments, Segment{Name: gapName(ev.Stage), Kind: KindStall, Dur: time.Duration(gap)})
			cursor = ev.TS
		}
		segEnd := max(end(ev), cursor) // a stage fully overlapped by the previous one adds nothing
		kind := KindWork
		if ev.Stage.stall() {
			kind = KindStall
		}
		if d := segEnd - cursor; d > 0 || !ev.Stage.stall() {
			path.Segments = append(path.Segments, Segment{Name: ev.Stage.String(), Kind: kind, Dur: time.Duration(d)})
		}
		cursor = segEnd
	}
	path.Start, path.End = r.at(origin), r.at(cursor)
	path.Total = time.Duration(cursor - origin)

	// Shares + the critical (largest-share work) segment.
	var critDur time.Duration
	for i := range path.Segments {
		seg := &path.Segments[i]
		if path.Total > 0 {
			seg.Share = float64(seg.Dur) / float64(path.Total)
		}
		if seg.Kind == KindWork && seg.Dur > critDur {
			critDur = seg.Dur
			path.Critical = seg.Name
		}
	}

	// Commit tail: the state-commit stage inside the commit stage.
	for i := range stages {
		ev := &stages[i]
		if ev.Stage == StageStateCommit && ev.Worker == node && ev.TS >= commit.TS && end(ev) <= end(commit) {
			path.CommitTail = time.Duration(max(ev.Dur(), 0))
		}
	}
	return path, true
}

// Paths assembles the critical path of every (block, node) pair with a
// buffered commit stage, ordered by (end time, height, node) oldest-first.
// node filters to one node when non-empty.
func (r *Recorder) Paths(node string) []BlockPath {
	type key struct {
		block types.Hash
		node  int16
	}
	spans := r.Spans()
	nodes := r.Nodes() // after the events it names

	byBlock := map[types.Hash][]Event{} // one pass, not one ring copy per path
	for _, ev := range spans {
		byBlock[ev.Tx] = append(byBlock[ev.Tx], ev)
	}
	seen := map[key]bool{}
	out := []BlockPath{}
	for _, ev := range spans {
		k := key{ev.Tx, ev.Worker}
		if ev.Stage != StageCommit || node != "" && nodes[ev.Worker] != node || seen[k] {
			continue
		}
		seen[k] = true
		if p, ok := r.pathFor(byBlock[ev.Tx], nodes, ev.Worker); ok {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].End.Equal(out[j].End) {
			return out[i].End.Before(out[j].End)
		}
		if out[i].Height != out[j].Height {
			return out[i].Height < out[j].Height
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Bucket is one aggregated segment class across a window of blocks.
type Bucket struct {
	Name  string        `json:"name"`
	Kind  SegmentKind   `json:"kind"`
	Total time.Duration `json:"total_ns"`
	Share float64       `json:"share"` // fraction of the window's summed block latency
}

// WindowSummary aggregates the last N block paths: which stage chain
// bounded end-to-end latency and where the non-critical time went. It is the
// JSON wire form /trace/critical-path serves.
type WindowSummary struct {
	Blocks     int           `json:"blocks"`
	Complete   int           `json:"complete"`
	Total      time.Duration `json:"total_ns"` // summed end-to-end latency across the window
	Critical   string        `json:"critical"` // work bucket with the largest share
	WorkShare  float64       `json:"work_share"`
	StallShare float64       `json:"stall_share"`
	CommitTail time.Duration `json:"commit_tail_ns,omitempty"`
	Buckets    []Bucket      `json:"buckets"` // sorted by total descending
}

// Window summarizes the most recent n paths (0 = all buffered), optionally
// filtered to one node.
func (r *Recorder) Window(n int, node string) WindowSummary {
	paths := r.Paths(node)
	if n > 0 && len(paths) > n {
		paths = paths[len(paths)-n:]
	}
	w := WindowSummary{Blocks: len(paths)}
	agg := map[string]*Bucket{}
	for i := range paths {
		p := &paths[i]
		if p.Complete {
			w.Complete++
		}
		w.Total += p.Total
		w.CommitTail += p.CommitTail
		for _, seg := range p.Segments {
			b := agg[seg.Name]
			if b == nil {
				b = &Bucket{Name: seg.Name, Kind: seg.Kind}
				agg[seg.Name] = b
			}
			b.Total += seg.Dur
		}
	}
	for _, b := range agg {
		if w.Total > 0 {
			b.Share = float64(b.Total) / float64(w.Total)
		}
		if b.Kind == KindWork {
			w.WorkShare += b.Share
		} else {
			w.StallShare += b.Share
		}
		w.Buckets = append(w.Buckets, *b)
	}
	sort.Slice(w.Buckets, func(i, j int) bool {
		if w.Buckets[i].Total != w.Buckets[j].Total {
			return w.Buckets[i].Total > w.Buckets[j].Total
		}
		return w.Buckets[i].Name < w.Buckets[j].Name
	})
	for _, b := range w.Buckets { // the largest work bucket comes first
		if b.Kind == KindWork && b.Total > 0 {
			w.Critical = b.Name
			break
		}
	}
	return w
}
