// Package trace is BlockPilot's one recorder: a timeline of what happens to
// every transaction and every block, from mempool admission on the proposer
// to commit on each validator — where a block's time goes between the two.
//
// Every record is an Event in a ring. Package-level helpers (events.go)
// record the transaction kinds: admit, pop, speculative attempt start/end,
// WSI abort, snapshot extension, commit, seal, drop, validator assign,
// replay or reuse, and verify. A completed block stage is one more kind,
// EvStage (stage.go), written by Phase.End, RecordSpan and Delivered. The
// readers — critical paths and stall buckets (critical.go), the waterfall
// and timeline views (render.go, export.go), conflict attribution
// (attribution.go) and the Perfetto file (perfetto.go) — read those events
// on the recorder's one clock, and the installed recorder's telemetry.Slot
// serves them under /trace/ and /flight/. The rings are the only store the
// readers read.
//
//   - The disabled path (nothing installed, telemetry off) is atomic loads
//     and a nil check: 0 allocations, within 100× of a bare atomic load —
//     enforced by TestDisabledPathBudget (`make obs-budget`).
//   - Stage call sites resolve their recorder with Resolve(instance): an
//     injected *Recorder (the cluster simulator gives every run its own) or
//     the installed one; every Recorder method is nil-safe. The
//     per-transaction helpers read the installed recorder only.
//   - A phase is timed once: Begin / End read the clock once per boundary,
//     and the one interval feeds both the stage's telemetry histogram
//     (stageHist) and its stage event.
//   - Workers never contend: each writes its own ring; stage events have a
//     ring of their own, so transaction traffic never evicts a block's path.
package trace

import (
	"errors"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/telemetry"
)

// ring is one event buffer. Its owner (one worker, or the stage writers) is
// the only steady-state writer, so the mutex is uncontended except against
// snapshots.
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
// full lifecycle traffic at the paper's 132 tx/block — and a 32768-event
// stage ring, about ten events per (block, node). A ring fills as it is
// written, so a recorder that records stages only holds only those.
const (
	DefaultRings         = 16
	DefaultRingCapacity  = 8192
	DefaultStageCapacity = 32768
)

// Recorder owns the rings. Its start is the
// epoch every event's TS counts from.
type Recorder struct {
	start  time.Time
	seq    atomic.Uint64
	rings  []ring
	stages ring

	// The node table stage events index; nodes[0] is "" (no sender).
	nodeMu sync.Mutex
	nodes  []string
}

// NewRecorder builds a recorder without installing it (the cluster
// simulator keeps one per run).
func NewRecorder() *Recorder {
	return newRecorder(DefaultRings, DefaultRingCapacity, DefaultStageCapacity)
}

// newRecorder builds a recorder of the given sizes (tests want tiny rings).
func newRecorder(rings, ringCapacity, stageCapacity int) *Recorder {
	r := &Recorder{
		start: time.Now(),
		rings: make([]ring, rings),
		nodes: []string{""},
	}
	for i := range r.rings {
		r.rings[i].buf = telemetry.NewRing[Event](ringCapacity)
	}
	r.stages.buf = telemetry.NewRing[Event](stageCapacity)
	return r
}

// active is the installed recorder; nil = recording disabled.
var active telemetry.Slot[Recorder]

// The endpoints, served from the installed recorder. On /trace/, ?node=
// keeps one node's paths and ?n= the newest n.
func init() {
	active.Serve("trace recorder", "-trace", map[string]telemetry.View[Recorder]{
		// Per-(block, node) critical paths, or with ?spans=1 the stage events.
		"/trace/blocks": func(r *Recorder, req *http.Request) (any, error) {
			node := req.URL.Query().Get("node")
			if req.URL.Query().Get("spans") == "1" {
				views, spans := []SpanView{}, r.Spans()
				nodes := r.Nodes() // after the events it names
				for _, ev := range spans {
					if node == "" || nodes[ev.Worker] == node {
						views = append(views, r.spanView(&ev, nodes))
					}
				}
				return views, nil
			}
			paths := r.Paths(node)
			if n := telemetry.QueryN(req); n > 0 && len(paths) > n {
				paths = paths[len(paths)-n:]
			}
			return paths, nil
		},
		// The sliding-window summary over the newest n paths.
		"/trace/critical-path": func(r *Recorder, req *http.Request) (any, error) {
			return r.Window(telemetry.QueryN(req), req.URL.Query().Get("node")), nil
		},
		"/flight/events": func(r *Recorder, _ *http.Request) (any, error) {
			evs := r.Events()
			return Views(evs, r.Nodes()), nil // the table after the events it names
		},
		// One transaction's timeline: ?tx=<hash or unique prefix>.
		"/flight/txtrace": func(r *Recorder, req *http.Request) (any, error) {
			tx := req.URL.Query().Get("tx")
			if tx == "" {
				return nil, errors.New("missing ?tx=<hash or unique prefix>")
			}
			evs, err := r.TimelineByPrefix(tx)
			if err != nil {
				return nil, err
			}
			return Views(evs, r.Nodes()), nil
		},
		// The conflict-attribution report: ?n= heavy hitters (default 10).
		"/flight/hotkeys": func(r *Recorder, req *http.Request) (any, error) {
			return r.Attribution(telemetry.QueryN(req)), nil
		},
		// The Perfetto file of every buffered event.
		"/flight/trace.json": func(r *Recorder, _ *http.Request) (any, error) {
			return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
				_ = r.WriteTrace(w)
			}), nil
		},
	})
}

// Enable installs a fresh recorder (replacing any previous one) and returns
// it. The endpoints always serve the currently installed recorder.
func Enable() *Recorder {
	r := NewRecorder()
	active.Store(r)
	return r
}

// Disable uninstalls the recorder, returning it (if any) so its buffered
// events can still be exported.
func Disable() *Recorder { return active.Swap(nil) }

// Active returns the installed recorder, or nil when disabled.
func Active() *Recorder { return active.Load() }

// Resolve returns the recorder a stage call site should record into: the
// injected one when non-nil, the installed one otherwise. With neither, the
// nil result makes every method a no-op — this load + nil check is the
// whole disabled path.
func Resolve(r *Recorder) *Recorder {
	if r != nil {
		return r
	}
	return active.Load()
}

// record stamps and stores one transaction event into the worker's ring.
func (r *Recorder) record(worker int, ev Event) {
	ev.TS = time.Since(r.start).Nanoseconds()
	ev.Seq = r.seq.Add(1)
	ev.Worker = int16(worker)
	r.rings[uint(worker)%uint(len(r.rings))].record(ev)
}

// Events returns every buffered event, stage events included, merged across
// rings and ordered by (TS, Seq).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := r.stages.snapshot(nil)
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

// Total returns how many events were ever recorded (including overwritten):
// each took one Seq.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}
