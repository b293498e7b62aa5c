package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one benchmark-side span around a public call into a layer. Spans
// of one round share Round; Parent is the ID of the enclosing span (0 =
// top level). Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// timed run: every method is a no-op, so the measured path carries no
// tracing beyond one nil check per call site.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span and returns its ID.
func (r *recorder) open(name string, parent, round int, start time.Time) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Round: round, Name: name, Start: start.Sub(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) close(id int, end time.Time) {
	if r == nil {
		return
	}
	r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
}

// add records a span whose both ends are already known.
func (r *recorder) add(name string, parent, round int, start, end time.Time) {
	r.close(r.open(name, parent, round, start), end)
}

// selfTimes returns, per span name, total duration minus the part covered
// by child spans: where a round's wall time went, by layer boundary.
// Sibling spans may overlap (two blocks in transit at once), so a parent's
// self time is floored at zero.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.Parent] += s.End - s.Start
	}
	self := make(map[string]time.Duration)
	for _, s := range r.spans {
		self[s.Name] += time.Duration(max(s.End-s.Start-child[s.ID], 0))
	}
	return self
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
