package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"blockpilot/internal/types"
)

// exportEvent mirrors the Chrome trace-event subset the export emits, for
// schema validation on the decoded side.
type exportEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

type exportFile struct {
	TraceEvents     []exportEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func decodeTrace(t *testing.T, buf *bytes.Buffer) exportFile {
	t.Helper()
	var f exportFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return f
}

// validateSchema applies the Chrome trace-event invariants Perfetto relies
// on: known phase codes, positive pids, non-negative timestamps/durations,
// instants carrying a scope, and metadata events naming something.
func validateSchema(t *testing.T, f exportFile) {
	t.Helper()
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", f.DisplayTimeUnit)
	}
	for i, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 {
				t.Fatalf("event %d (%s): negative duration %v", i, ev.Name, ev.Dur)
			}
		case "i":
			if ev.S == "" {
				t.Fatalf("event %d (%s): instant without scope", i, ev.Name)
			}
		case "M":
			if ev.Args["name"] == "" {
				t.Fatalf("event %d: metadata without a name arg", i)
			}
		default:
			t.Fatalf("event %d (%s): unknown phase %q", i, ev.Name, ev.Ph)
		}
		if ev.Ph != "M" && ev.TS < 0 {
			t.Fatalf("event %d (%s): negative timestamp %v", i, ev.Name, ev.TS)
		}
		if ev.Pid < pidProposer || ev.Pid > pidBlocks {
			t.Fatalf("event %d (%s): pid %d outside known processes", i, ev.Name, ev.Pid)
		}
	}
}

// TestWriteTraceMergedSchema drives both kinds — transaction events and
// block stage events — through the one export and schema-validates the
// result.
func TestWriteTraceMergedSchema(t *testing.T) {
	r := newRecorder(1, 64, 8)
	var tx types.Hash
	tx[0] = 0xaa
	r.record(3, Event{Kind: EvExecStart, Tx: tx, Height: 7})
	r.record(3, Event{Kind: EvExecEnd, Tx: tx, Height: 7})
	r.record(WorkerSystem, Event{Kind: EvAdmit, Tx: tx, Height: 7})

	var blk types.Hash
	blk[0] = 0x07
	base := r.start.Add(2 * time.Millisecond)
	r.RecordSpan("proposer", StageSeal, blk, 7, base, base.Add(time.Millisecond))
	r.RecordSpan("v0", StageTransfer, blk, 7, base.Add(time.Millisecond), base.Add(2*time.Millisecond))
	r.RecordSpan("v0", StageCommit, blk, 7, base.Add(2*time.Millisecond), base.Add(3*time.Millisecond))

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	f := decodeTrace(t, &buf)
	validateSchema(t, f)

	// Every source must surface under its own process.
	byPid := map[int]int{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "M" {
			byPid[ev.Pid]++
		}
	}
	for _, pid := range []int{pidProposer, pidPipeline, pidBlocks} {
		if byPid[pid] == 0 {
			t.Fatalf("no events under pid %d (distribution %v)", pid, byPid)
		}
	}
}

// TestWriteTraceMergedBlockOrdering checks the block-stage section: stages
// sit on the recorder epoch in start order, nodes map to stable tids, and
// cross-node stages carry the shared trace id in args.
func TestWriteTraceMergedBlockOrdering(t *testing.T) {
	r := newRecorder(1, 8, 8)
	var blk types.Hash
	blk[0] = 0x42
	base := r.start
	r.RecordSpan("proposer", StageSeal, blk, 3, base, base.Add(4*time.Millisecond))
	r.Delivered("proposer", "v0", 3, blk, base.Add(5*time.Millisecond).UnixNano())
	r.RecordSpan("v0", StageCommit, blk, 3, base.Add(8*time.Millisecond), base.Add(9*time.Millisecond))

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	f := decodeTrace(t, &buf)
	validateSchema(t, f)

	tids := map[string]int{} // thread_name arg → tid
	var blockEvents []exportEvent
	for _, ev := range f.TraceEvents {
		if ev.Pid != pidBlocks {
			continue
		}
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tids[ev.Args["name"].(string)] = ev.Tid
			continue
		}
		if ev.Ph == "X" {
			blockEvents = append(blockEvents, ev)
		}
	}
	if len(blockEvents) != 3 {
		t.Fatalf("got %d block slices, want 3 (seal, transfer, commit)", len(blockEvents))
	}
	if tids["node:proposer"] == tids["node:v0"] {
		t.Fatalf("proposer and v0 share tid %d", tids["node:proposer"])
	}
	// Timestamps must be monotonic here and slices must land on their
	// node's tid.
	wantTid := []int{tids["node:proposer"], tids["node:v0"], tids["node:v0"]}
	for i, ev := range blockEvents {
		if ev.Tid != wantTid[i] {
			t.Fatalf("slice %d (%s) on tid %d, want %d", i, ev.Name, ev.Tid, wantTid[i])
		}
		if i > 0 && ev.TS < blockEvents[i-1].TS {
			t.Fatalf("slice %d (%s) at %v precedes slice %d at %v", i, ev.Name, ev.TS, i-1, blockEvents[i-1].TS)
		}
	}
	// The shared trace id stitches all three slices.
	want := blockEvents[0].Args["trace_id"]
	for _, ev := range blockEvents {
		if ev.Args["trace_id"] != want {
			t.Fatalf("slice %s trace_id %v, want %v", ev.Name, ev.Args["trace_id"], want)
		}
		if ev.Args["block"] == "" {
			t.Fatalf("slice %s carries no block hash", ev.Name)
		}
	}
}

// TestWriteTraceMergedEmpty: all-empty sources must still produce a valid,
// loadable trace (process metadata only, no slices).
func TestWriteTraceMergedEmpty(t *testing.T) {
	r := newRecorder(1, 8, 8)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	f := decodeTrace(t, &buf)
	validateSchema(t, f)
	for _, ev := range f.TraceEvents {
		if ev.Ph != "M" {
			t.Fatalf("empty export contains non-metadata event %+v", ev)
		}
	}
}

// TestWriteTraceFile: the one helper behind -trace-out and the incident
// bundles writes every buffered event, stage events on the blocks process,
// and reports an unwritable path.
func TestWriteTraceFile(t *testing.T) {
	r := newRecorder(1, 8, 8)
	r.record(WorkerSystem, Event{Kind: EvAdmit, Tx: types.Hash{1}})
	slicesIn := func(path string) int {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f := decodeTrace(t, bytes.NewBuffer(raw))
		validateSchema(t, f)
		n := 0
		for _, ev := range f.TraceEvents {
			if ev.Pid == pidBlocks && ev.Ph == "X" {
				n++
			}
		}
		return n
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	if n := slicesIn(path); n != 0 {
		t.Fatalf("no stage recorded, yet %d block slices", n)
	}

	r.RecordSpan("v0", StageCommit, types.Hash{1}, 1, r.start, r.start.Add(time.Millisecond))
	if err := r.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	if n := slicesIn(path); n != 1 {
		t.Fatalf("%d block slices, want the recorded 1", n)
	}

	if err := r.WriteTraceFile(filepath.Join(t.TempDir(), "no", "such", "dir.json")); err == nil {
		t.Fatal("unwritable path reported no error")
	}
}

// TestNodesKeepTheirLanes: two nodes replaying one transaction on the same
// lane number stay apart — one replay slice each, on a track of its own that
// names the node — and the wire views name each event's node.
func TestNodesKeepTheirLanes(t *testing.T) {
	r := install(t, NewRecorder())
	tx := mktx(1, 0)
	v0, v1 := NodeIndex("v0"), NodeIndex("v1")
	ReplayStart(v0, 0, tx, 1)
	ReplayStart(v1, 0, tx, 1)
	time.Sleep(time.Millisecond)
	ReplayEnd(v1, 0, tx, 1)
	ReplayEnd(v0, 0, tx, 1)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	f := decodeTrace(t, &buf)
	validateSchema(t, f)
	threads := map[int]string{}
	replays := map[string]exportEvent{} // thread name → its replay slice
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == pidValidator {
			threads[ev.Tid] = ev.Args["name"].(string)
		}
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Pid == pidValidator {
			if _, dup := replays[threads[ev.Tid]]; dup {
				t.Fatalf("two replay slices on %q", threads[ev.Tid])
			}
			replays[threads[ev.Tid]] = ev
		}
	}
	outer, inner := replays["v0/validator-0"], replays["v1/validator-0"]
	if len(replays) != 2 || outer.TS > inner.TS || outer.TS+outer.Dur < inner.TS+inner.Dur {
		t.Fatalf("replay slices %+v, want v0's enclosing v1's on tracks of their own", replays)
	}
	var nodes []string
	for _, v := range Views(r.Events(), r.Nodes()) {
		nodes = append(nodes, v.Node)
	}
	if fmt.Sprint(nodes) != "[v0 v1 v1 v0]" {
		t.Fatalf("view nodes %v, want [v0 v1 v1 v0]", nodes)
	}
}
