// Chrome trace-event export: renders every buffered event — transaction
// events and block stage events alike, on the recorder's one clock — as a
// Chrome JSON trace that loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Track layout:
//
//	pid 1 "proposer"  — one tid per (node, proposer worker): exec attempts
//	                    as complete ("X") slices, pop/abort/requeue/commit/
//	                    drop as instant ("i") events
//	pid 2 "validator" — one tid per (node, execution lane): replay slices
//	                    plus assign/reuse instants
//	pid 3 "pipeline"  — the system lane, one tid per node: admit/seal/verify
//	                    instants
//	pid 4 "blocks"    — block stage slices (seal, transfer, queue, prepare,
//	                    execute, verify, commit, …), one tid per node,
//	                    tagged with the block's trace id
package trace

import (
	"encoding/json"
	"io"
	"os"
	"strings"

	"blockpilot/internal/types"
)

// traceEvent is one Chrome trace-event object (the subset Perfetto needs).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const (
	pidProposer  = 1
	pidValidator = 2
	pidPipeline  = 3
	pidBlocks    = 4
)

func metaEvent(pid, tid int, kind, name string) traceEvent {
	return traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}

func short(h types.Hash) string { return h.String()[:10] }

// WriteTrace renders the recorder's buffered events as a Chrome JSON trace,
// in one pass over Events on the recorder's epoch. Stage events land on
// their own process ("blocks"): one thread per node, every stage a complete
// slice tagged with its trace id, block hash and stage, so the cross-node
// path of one block reads as aligned slices on the timeline of its
// transactions.
func (r *Recorder) WriteTrace(w io.Writer) error {
	out := traceFile{DisplayTimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents,
		metaEvent(pidProposer, 0, "process_name", "proposer"),
		metaEvent(pidValidator, 0, "process_name", "validator"),
		metaEvent(pidPipeline, 0, "process_name", "pipeline"),
	)
	// thread names each (pid, tid) on its first event.
	named := map[[2]int]bool{}
	thread := func(pid, tid int, name string) {
		if !named[[2]int{pid, tid}] {
			named[[2]int{pid, tid}] = true
			out.TraceEvents = append(out.TraceEvents, metaEvent(pid, tid, "thread_name", name))
		}
	}
	nodeTid := map[int16]int{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	// Exec and replay starts, awaiting their end on the same node's worker.
	type attempt struct {
		node, worker int16
		tx           types.Hash
	}
	started := map[attempt]int64{}

	events := r.Events()
	nodes := r.Nodes() // after the events it names
	for _, ev := range events {
		if ev.Kind == EvStage {
			tid, ok := nodeTid[ev.Worker]
			if !ok {
				if len(nodeTid) == 0 {
					out.TraceEvents = append(out.TraceEvents, metaEvent(pidBlocks, 0, "process_name", "blocks"))
				}
				tid = len(nodeTid) + 1
				nodeTid[ev.Worker] = tid
				thread(pidBlocks, tid, "node:"+nodes[ev.Worker])
			}
			args := map[string]any{"height": ev.Height, "block": ev.Tx.String(), "trace_id": TraceID(ev.Tx), "span_id": ev.Seq}
			if ev.Stripe != 0 {
				args["from"] = nodes[ev.Stripe]
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: ev.Stage.String() + " " + short(ev.Tx), Ph: "X", TS: us(ev.TS), Dur: us(max(ev.Dur(), 0)),
				Pid: pidBlocks, Tid: tid, Args: args,
			})
			continue
		}
		pid, lane := pidProposer, int(ev.Worker)
		switch {
		case ev.Worker == WorkerSystem:
			pid, lane = pidPipeline, 0
		case ev.Worker >= ValidatorLaneBase:
			pid, lane = pidValidator, int(ev.Worker)-ValidatorLaneBase
		}
		// A node's lanes sit in a tid block of their own; an unnamed node's
		// tid is the lane.
		tid, name := int(ev.Node)<<9|lane, LaneName(int(ev.Worker))
		if node := nodeName(nodes, ev.Node); node != "" {
			name = node + "/" + name
		}
		thread(pid, tid, name)
		switch ev.Kind {
		case EvExecStart, EvReplayStart:
			started[attempt{ev.Node, ev.Worker, ev.Tx}] = ev.TS
		case EvExecEnd, EvReplayEnd:
			k := attempt{ev.Node, ev.Worker, ev.Tx}
			if ts, ok := started[k]; ok {
				delete(started, k)
				out.TraceEvents = append(out.TraceEvents, traceEvent{
					Name: strings.TrimSuffix(ev.Kind.String(), "_end") + " " + short(ev.Tx), Ph: "X",
					TS: us(ts), Dur: us(ev.TS - ts), Pid: pid, Tid: tid,
					Args: map[string]any{"tx": ev.Tx.String(), "sender": ev.Sender.String(), "height": ev.Height},
				})
			}
		default:
			args := map[string]any{"tx": ev.Tx.String(), "height": ev.Height}
			for _, f := range ev.View().payload() {
				args[f.name] = f.value
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: ev.Kind.String() + " " + short(ev.Tx), Ph: "i",
				TS: us(ev.TS), Pid: pid, Tid: tid, S: "t", Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(&out)
}

// WriteTraceFile writes the recorder's trace to path: what -trace-out and
// the health recorder's incident bundles produce.
func (r *Recorder) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := r.WriteTrace(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
