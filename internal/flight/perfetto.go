// Chrome trace-event export: renders the flight-recorder event stream plus
// the block tracer's spans as a Chrome JSON trace that loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Track layout:
//
//	pid 1 "proposer"  — one tid per proposer worker: exec attempts as
//	                    complete ("X") slices, pop/abort/requeue/commit/
//	                    drop as instant ("i") events
//	pid 2 "validator" — one tid per execution lane: replay slices plus
//	                    assign/reuse/verify instants
//	pid 3 "pipeline"  — block_submit/block_done instants
//	pid 4 "blocks"    — block lifecycle spans from internal/trace (seal,
//	                    transfer, queue, prepare, execute, verify, commit,
//	                    …), one tid per node, stitched by trace id
package flight

import (
	"encoding/json"
	"io"
	"os"
	"sort"

	"blockpilot/internal/trace"
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

// WriteTrace renders the recorder's buffered events and the given block
// lifecycle spans as a Chrome JSON trace. The spans land on their own process
// ("blocks"): one thread per node, every span a complete slice tagged with
// its trace id, block hash and stage and re-based onto the recorder's epoch,
// so the cross-node path of one block reads as aligned slices under a single
// timeline shared with the per-tx flight events.
func (r *Recorder) WriteTrace(w io.Writer, blocks []trace.Span) error {
	evs := r.Events()
	out := traceFile{DisplayTimeUnit: "ms"}

	out.TraceEvents = append(out.TraceEvents,
		metaEvent(pidProposer, 0, "process_name", "proposer"),
		metaEvent(pidValidator, 0, "process_name", "validator"),
		metaEvent(pidPipeline, 0, "process_name", "pipeline"),
	)

	usedLanes := map[[2]int]bool{}
	lane := func(worker int) (pid, tid int) {
		switch {
		case worker == WorkerSystem:
			pid, tid = pidPipeline, 0
		case worker >= ValidatorLaneBase:
			pid, tid = pidValidator, worker-ValidatorLaneBase
		default:
			pid, tid = pidProposer, worker
		}
		if !usedLanes[[2]int{pid, tid}] {
			usedLanes[[2]int{pid, tid}] = true
			name := LaneName(worker)
			if worker == WorkerSystem {
				name = "milestones"
			}
			out.TraceEvents = append(out.TraceEvents, metaEvent(pid, tid, "thread_name", name))
		}
		return pid, tid
	}

	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	// Pair start/end kinds into complete slices per (worker, tx).
	type openSlice struct{ ts int64 }
	openExec := map[[2]uint64]openSlice{} // (worker, txPrefix) — worker-local, prefix is enough
	keyOf := func(ev Event) [2]uint64 {
		var p uint64
		for i := 0; i < 8; i++ {
			p = p<<8 | uint64(ev.Tx[i])
		}
		return [2]uint64{uint64(uint16(ev.Worker)), p}
	}

	for _, ev := range evs {
		pid, tid := lane(int(ev.Worker))
		switch ev.Kind {
		case EvExecStart, EvReplayStart:
			openExec[keyOf(ev)] = openSlice{ts: ev.TS}
		case EvExecEnd, EvReplayEnd:
			k := keyOf(ev)
			if o, ok := openExec[k]; ok {
				delete(openExec, k)
				name := "exec " + short(ev.Tx)
				if ev.Kind == EvReplayEnd {
					name = "replay " + short(ev.Tx)
				}
				out.TraceEvents = append(out.TraceEvents, traceEvent{
					Name: name, Ph: "X", TS: us(o.ts), Dur: us(ev.TS - o.ts),
					Pid: pid, Tid: tid,
					Args: map[string]any{"tx": ev.Tx.String(), "sender": ev.Sender.String(), "height": ev.Height},
				})
			}
		case EvBlockSubmit, EvBlockDone:
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: ev.Kind.String(), Ph: "i", TS: us(ev.TS), Pid: pidPipeline, Tid: 0, S: "p",
				Args: map[string]any{"height": ev.Height, "ok": ev.Aux == 1},
			})
		default:
			args := map[string]any{"tx": ev.Tx.String(), "height": ev.Height}
			switch ev.Kind {
			case EvAbort:
				args["key"] = ev.Key.String()
				args["winner_version"] = ev.Version
				args["stripe"] = ev.Stripe
			case EvExtend:
				args["key"] = ev.Key.String()
				args["from_version"] = ev.Aux
				args["to_version"] = ev.Version
				args["stripe"] = ev.Stripe
			case EvCommit:
				args["version"] = ev.Version
			case EvSeal:
				args["version"] = ev.Version
				args["position"] = ev.Aux
			case EvAssign:
				args["component"] = ev.Aux
				args["component_gas"] = ev.Aux2
			case EvReuse:
				args["leader_index"] = ev.Aux
			case EvDrop:
				args["retry_exhausted"] = ev.Aux == 1
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: ev.Kind.String() + " " + short(ev.Tx), Ph: "i",
				TS: us(ev.TS), Pid: pid, Tid: tid, S: "t", Args: args,
			})
		}
	}

	// Block lifecycle spans on their own process, one tid per node.
	if len(blocks) > 0 {
		out.TraceEvents = append(out.TraceEvents, metaEvent(pidBlocks, 0, "process_name", "blocks"))
		nodeTid := map[string]int{}
		nodes := make([]string, 0, 4)
		for i := range blocks {
			if _, ok := nodeTid[blocks[i].Node]; !ok {
				nodeTid[blocks[i].Node] = 0
				nodes = append(nodes, blocks[i].Node)
			}
		}
		sort.Strings(nodes)
		for i, n := range nodes {
			nodeTid[n] = i + 1
			out.TraceEvents = append(out.TraceEvents, metaEvent(pidBlocks, i+1, "thread_name", "node:"+n))
		}
		for i := range blocks {
			sp := &blocks[i]
			rel := sp.Start.Sub(r.start).Nanoseconds()
			args := map[string]any{
				"height":   sp.Height,
				"block":    sp.Block.String(),
				"trace_id": sp.TraceID,
				"span_id":  sp.SpanID,
			}
			if sp.From != "" {
				args["from"] = sp.From
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: sp.Stage.String() + " " + short(sp.Block), Ph: "X",
				TS: us(rel), Dur: us(sp.Dur().Nanoseconds()),
				Pid: pidBlocks, Tid: nodeTid[sp.Node], Args: args,
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// WriteTraceFile writes the trace of the recorder and of the installed block
// tracer (if any) to path: what -flight-out and -trace-out produce.
func (r *Recorder) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := r.WriteTrace(f, trace.Active().Spans())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
