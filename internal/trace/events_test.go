package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"blockpilot/internal/types"
)

// mktx builds a unique transaction (distinct From+Nonce → distinct hash).
func mktx(n byte, nonce uint64) *types.Transaction {
	var from types.Address
	from[0] = n
	from[19] = byte(nonce)
	return &types.Transaction{Nonce: nonce, Gas: 21000, To: types.HexToAddress("0xdead"), From: from}
}

// install swaps in r for one test and restores the previous global state
// afterwards.
func install(t *testing.T, r *Recorder) *Recorder {
	t.Helper()
	prev := Active()
	active.Store(r)
	t.Cleanup(func() { active.Store(prev) })
	return r
}

// A stage event keeps its payload in fields the transaction kinds leave
// unused, so recording stages costs the per-transaction event nothing: the
// one Event stays the 168 bytes it was before stages joined it.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 168 {
		t.Fatalf("Event is %d bytes, want at most 168", got)
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRecorder(1, 4, 8)
	for i := 0; i < 10; i++ {
		r.record(0, Event{Kind: EvPop, Height: uint64(i)})
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("buffered %d events, want ring capacity 4", len(evs))
	}
	// The ring keeps the newest events, oldest first.
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Height != want {
			t.Fatalf("evs[%d].Height = %d, want %d (oldest-first, newest retained)", i, ev.Height, want)
		}
		if i > 0 && (evs[i-1].TS > ev.TS || evs[i-1].Seq >= ev.Seq) {
			t.Fatalf("events out of (TS, Seq) order at %d: %+v then %+v", i, evs[i-1], ev)
		}
	}
}

func TestEventsMergedAcrossRings(t *testing.T) {
	r := newRecorder(4, 16, 8)
	// Interleave workers so each ring holds a strided slice of the sequence.
	for i := 0; i < 32; i++ {
		r.record(i%4, Event{Kind: EvExecStart, Height: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 32 {
		t.Fatalf("merged %d events, want 32", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].TS > evs[i].TS {
			t.Fatalf("merge not TS-ordered at %d", i)
		}
		if evs[i-1].TS == evs[i].TS && evs[i-1].Seq >= evs[i].Seq {
			t.Fatalf("merge not Seq-ordered at %d", i)
		}
	}
	// Worker ids survive the ring-selection modulo.
	seen := map[int16]int{}
	for _, ev := range evs {
		seen[ev.Worker]++
	}
	for w := int16(0); w < 4; w++ {
		if seen[w] != 8 {
			t.Fatalf("worker %d has %d events, want 8", w, seen[w])
		}
	}
}

// TestTimelineLifecycle drives the public helpers through one transaction's
// full proposer+validator lifecycle and checks the reconstructed order.
func TestTimelineLifecycle(t *testing.T) {
	install(t, newRecorder(2, 64, 8))
	tx := mktx(1, 0)
	other := mktx(2, 0)

	Admit(tx)
	Admit(other)
	Pop(0, 0, tx, 5)
	ExecStart(0, 0, tx, 5)
	ExecEnd(0, 0, tx, 5)
	Abort(0, 0, tx, types.AccountKey(tx.To), 3, 5)
	Requeue(0, 0, tx, 5)
	Pop(0, 1, tx, 5)
	ExecStart(0, 1, tx, 5)
	ExecEnd(0, 1, tx, 5)
	Commit(0, 1, tx, 9, 5)
	Seal(0, tx, 9, 4, 5)
	Assign(0, 2, tx, 4, 2, 5)
	ReplayStart(0, 2, tx, 5)
	ReplayEnd(0, 2, tx, 5)
	Verify(0, tx, true, 5)
	Commit(0, 0, other, 1, 5)

	tl, err := Active().TimelineByPrefix(tx.Hash().String())
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []EventKind{
		EvAdmit, EvPop, EvExecStart, EvExecEnd, EvAbort, EvRequeue,
		EvPop, EvExecStart, EvExecEnd, EvCommit, EvSeal,
		EvAssign, EvReplayStart, EvReplayEnd, EvVerifyPass,
	}
	if len(tl) != len(wantKinds) {
		t.Fatalf("timeline has %d events, want %d: %+v", len(tl), len(wantKinds), Views(tl, nil))
	}
	for i, ev := range tl {
		if ev.Kind != wantKinds[i] {
			t.Fatalf("timeline[%d] = %s, want %s", i, ev.Kind, wantKinds[i])
		}
		if ev.Tx != tx.Hash() {
			t.Fatalf("timeline[%d] has foreign tx %s", i, ev.Tx)
		}
	}
	// Kind-specific payloads.
	if ab := tl[4]; ab.Key != types.AccountKey(tx.To) || ab.Version != 3 {
		t.Fatalf("abort payload = key=%s winner=%d", ab.Key, ab.Version)
	}
	if cm := tl[9]; cm.Version != 9 || cm.Worker != 1 {
		t.Fatalf("commit payload = version=%d worker=%d", cm.Version, cm.Worker)
	}
	if sl := tl[10]; sl.Aux != 4 || sl.Worker != WorkerSystem {
		t.Fatalf("seal payload = position=%d worker=%d", sl.Aux, sl.Worker)
	}
	if as := tl[11]; as.Worker != int16(ValidatorLane(2)) || as.Aux != 4 || as.Aux2 != 2 {
		t.Fatalf("assign payload = worker=%d writer=%d reads=%d", as.Worker, as.Aux, as.Aux2)
	}

	// The rendered table carries the whole lifecycle.
	text := RenderTimeline(Views(tl, nil))
	for _, want := range []string{"admit", "abort", "requeue", "commit", "seal", "assign", "writer=3 reads=2", "replay_start", "verify_pass", "validator-2", "proposer-1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered timeline missing %q:\n%s", want, text)
		}
	}
}

func TestTimelineByPrefix(t *testing.T) {
	r := newRecorder(1, 256, 8)
	// 17 distinct hashes guarantee (pigeonhole over 16 nibble values) that at
	// least two share a first hex digit — a deterministic ambiguity case.
	txs := make([]*types.Transaction, 17)
	for i := range txs {
		txs[i] = mktx(byte(i+1), uint64(i))
		r.record(0, Event{Kind: EvCommit, Tx: txs[i].Hash(), Sender: txs[i].From})
	}

	// Full hash resolves, with or without the 0x prefix.
	full := txs[3].Hash().String()
	for _, q := range []string{full, strings.TrimPrefix(full, "0x")} {
		evs, err := r.TimelineByPrefix(q)
		if err != nil || len(evs) != 1 || evs[0].Tx != txs[3].Hash() {
			t.Fatalf("TimelineByPrefix(%q) = %d events, err %v", q, len(evs), err)
		}
	}

	if _, err := r.TimelineByPrefix("0x"); err != errEmptyPrefix {
		t.Fatalf("empty prefix: err = %v, want errEmptyPrefix", err)
	}
	if _, err := r.TimelineByPrefix("zz"); err != errNoSuchTx {
		t.Fatalf("no match: err = %v, want errNoSuchTx", err)
	}

	// Find the guaranteed shared first nibble.
	byNibble := map[byte]int{}
	ambiguous := ""
	for _, tx := range txs {
		h := strings.TrimPrefix(tx.Hash().String(), "0x")
		byNibble[h[0]]++
		if byNibble[h[0]] > 1 {
			ambiguous = h[:1]
			break
		}
	}
	if ambiguous == "" {
		t.Fatal("pigeonhole violated?!")
	}
	if _, err := r.TimelineByPrefix(ambiguous); err != errAmbiguousPrefix {
		t.Fatalf("ambiguous prefix %q: err = %v, want errAmbiguousPrefix", ambiguous, err)
	}
}

// TestDisabledHelpersAreNoops drives every helper with no recorder installed.
func TestDisabledHelpersAreNoops(t *testing.T) {
	prev := Active()
	active.Store(nil)
	t.Cleanup(func() { active.Store(prev) })

	tx := mktx(7, 0)
	Admit(tx)
	Pop(0, 0, tx, 1)
	ExecStart(0, 0, tx, 1)
	ExecEnd(0, 0, tx, 1)
	Abort(0, 0, tx, types.AccountKey(tx.From), 1, 1)
	Requeue(0, 0, tx, 1)
	Commit(0, 0, tx, 1, 1)
	Seal(0, tx, 1, 0, 1)
	Drop(0, 0, tx, 1, true)
	Assign(0, 0, tx, 0, 0, 1)
	ReplayStart(0, 0, tx, 1)
	ReplayEnd(0, 0, tx, 1)
	Verify(0, tx, false, 1)
	if Active() != nil {
		t.Fatal("helpers must not install a recorder")
	}
}

func TestLaneNames(t *testing.T) {
	for _, tc := range []struct {
		worker int
		want   string
	}{
		{0, "proposer-0"},
		{7, "proposer-7"},
		{ValidatorLane(0), "validator-0"},
		{ValidatorLane(3), "validator-3"},
		{WorkerSystem, "system"},
	} {
		if got := LaneName(tc.worker); got != tc.want {
			t.Fatalf("LaneName(%d) = %q, want %q", tc.worker, got, tc.want)
		}
	}
}

// TestWriteTracePerfetto checks the Chrome trace-event export is valid JSON
// with the expected track structure (the ISSUE 3 "loads in Perfetto" gate).
func TestWriteTracePerfetto(t *testing.T) {
	r := newRecorder(2, 128, 8)
	tx := mktx(1, 0)
	tx2 := mktx(2, 1)

	r.record(0, Event{Kind: EvExecStart, Tx: tx.Hash(), Sender: tx.From, Height: 1})
	r.record(0, Event{Kind: EvExecEnd, Tx: tx.Hash(), Sender: tx.From, Height: 1})
	r.record(0, Event{Kind: EvAbort, Tx: tx2.Hash(), Sender: tx2.From, Key: types.AccountKey(tx2.From), Version: 2, Height: 1})
	r.record(ValidatorLane(1), Event{Kind: EvReplayStart, Tx: tx.Hash(), Height: 1})
	r.record(ValidatorLane(1), Event{Kind: EvReplayEnd, Tx: tx.Hash(), Height: 1})
	r.record(WorkerSystem, Event{Kind: EvSeal, Tx: tx.Hash(), Sender: tx.From, Version: 1, Height: 1})
	r.record(WorkerSystem, Event{Kind: EvVerifyPass, Tx: tx.Hash(), Sender: tx.From, Height: 1})

	// The proposer's whole packing run: one seal stage.
	sealStart := r.start.Add(time.Microsecond)
	r.RecordSpan("proposer", StageSeal, types.Hash{7}, 1, sealStart, sealStart.Add(5*time.Millisecond))
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}

	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}

	var procNames []string
	slices, instants, phaseSlices := 0, 0, 0
	for _, ev := range parsed.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procNames = append(procNames, ev.Args["name"].(string))
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "exec "):
			slices++
			if ev.Pid != pidProposer || ev.Dur < 0 {
				t.Fatalf("exec slice on pid %d dur %f", ev.Pid, ev.Dur)
			}
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "replay "):
			slices++
			if ev.Pid != pidValidator {
				t.Fatalf("replay slice on pid %d", ev.Pid)
			}
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "seal "):
			phaseSlices++
			if ev.Pid != pidBlocks || ev.Dur != 5000 {
				t.Fatalf("phase span pid=%d dur=%f, want pid=%d dur=5000µs", ev.Pid, ev.Dur, pidBlocks)
			}
		case ev.Ph == "X":
			t.Fatalf("unexpected slice %q on pid %d: phases belong to the blocks process only", ev.Name, ev.Pid)
		case ev.Ph == "i":
			instants++
		}
	}
	if len(procNames) != 4 {
		t.Fatalf("process_name metadata = %v, want proposer/validator/pipeline/blocks", procNames)
	}
	if slices != 2 {
		t.Fatalf("paired %d complete slices, want 2 (exec + replay)", slices)
	}
	if phaseSlices != 1 {
		t.Fatal("seal span missing from the blocks process")
	}
	// abort instant + seal + verify_pass at minimum.
	if instants < 3 {
		t.Fatalf("only %d instants", instants)
	}
}

// recordAbort records one abort event of sender on key, on worker.
func recordAbort(r *Recorder, worker int, sender types.Address, key types.StateKey) {
	r.record(worker, Event{Kind: EvAbort, Sender: sender, Key: key})
}

// TestAttributionReport records a skewed abort stream and checks the ≥80%
// top-10 acceptance quantity and the hottest key and sender.
func TestAttributionReport(t *testing.T) {
	r := newRecorder(1, 128, 8)

	hotKey := types.AccountKey(types.HexToAddress("0xaaaa"))
	warmKey := types.StorageKey(types.HexToAddress("0xbbbb"), types.Hash{1})
	hotSender := types.HexToAddress("0x5e4de4")

	// 90 aborts on two keys, 10 across a tail of distinct keys: top-10 must
	// attribute ≥ 80%.
	for i := 0; i < 60; i++ {
		recordAbort(r, 0, hotSender, hotKey)
	}
	for i := 0; i < 30; i++ {
		recordAbort(r, 0, hotSender, warmKey)
	}
	for i := 0; i < 10; i++ {
		var a types.Address
		a[0], a[1] = 0xcc, byte(i)
		recordAbort(r, 0, a, types.AccountKey(a))
	}

	rep := r.Attribution(10)
	if rep.TotalAborts != 100 {
		t.Fatalf("TotalAborts = %d, want 100", rep.TotalAborts)
	}
	if rep.TopKeyShare < 0.8 {
		t.Fatalf("TopKeyShare = %.2f, want ≥ 0.80", rep.TopKeyShare)
	}
	if len(rep.Keys) == 0 || rep.Keys[0].Key != hotKey.String() || rep.Keys[0].Count != 60 {
		t.Fatalf("hottest key = %+v, want %s ×60", rep.Keys, hotKey)
	}
	if len(rep.Senders) == 0 || rep.Senders[0].Key != hotSender.String() || rep.Senders[0].Count != 90 {
		t.Fatalf("hottest sender = %+v, want %s ×90", rep.Senders, hotSender)
	}

	// The rendered report names the acceptance quantity and the hot key.
	text := rep.Render()
	for _, want := range []string{"conflict attribution", "100 aborts", hotKey.String(), hotSender.String()} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
}

// bruteHot counts name(ev) over every abort event of evs by rescanning them
// for each distinct name, then picks rows by repeated maximum, the earliest
// first-seen name winning a tie.
func bruteHot(evs []Event, name func(*Event) string, n int) []HotKey {
	var names []string
	var counts []uint64
	var total uint64
	for i := range evs {
		if evs[i].Kind != EvAbort {
			continue
		}
		total++
		if !slices.Contains(names, name(&evs[i])) {
			var c uint64
			for j := range evs {
				if evs[j].Kind == EvAbort && name(&evs[j]) == name(&evs[i]) {
					c++
				}
			}
			names, counts = append(names, name(&evs[i])), append(counts, c)
		}
	}
	var rows []HotKey
	for len(rows) < n {
		best := -1
		for i, c := range counts {
			if c > 0 && (best < 0 || c > counts[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		rows = append(rows, HotKey{Key: names[best], Count: counts[best], Share: float64(counts[best]) / float64(total)})
		counts[best] = 0
	}
	return rows
}

// TestAttributionMatchesEvents: for a seeded random abort stream spread over
// four rings and mixed with other kinds, the report equals a brute-force
// count over Events() — rows, order, shares and TopKeyShare — and
// a wrapped ring reports only the aborts it still holds.
func TestAttributionMatchesEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := newRecorder(4, 1024, 8)
	addr := func(i int) types.Address { return types.Address{0: 0xa0, 19: byte(i)} }
	for i := 0; i < 600; i++ {
		worker := rng.Intn(8)
		if rng.Intn(4) == 0 {
			r.record(worker, Event{Kind: EvCommit, Sender: addr(rng.Intn(6)), Key: types.AccountKey(addr(99))})
			continue
		}
		// A small key and sender population, so counts tie often.
		recordAbort(r, worker, addr(rng.Intn(6)), types.AccountKey(addr(rng.Intn(14))))
	}
	evs := r.Events()
	for _, n := range []int{3, 10, 64} {
		rep := r.Attribution(n)
		wantKeys := bruteHot(evs, func(ev *Event) string { return ev.Key.String() }, n)
		wantSenders := bruteHot(evs, func(ev *Event) string { return ev.Sender.String() }, n)
		if !slices.Equal(rep.Keys, wantKeys) {
			t.Fatalf("n=%d keys:\n got %+v\nwant %+v", n, rep.Keys, wantKeys)
		}
		if !slices.Equal(rep.Senders, wantSenders) {
			t.Fatalf("n=%d senders:\n got %+v\nwant %+v", n, rep.Senders, wantSenders)
		}
		var top10 uint64
		for _, k := range bruteHot(evs, func(ev *Event) string { return ev.Key.String() }, 10) {
			top10 += k.Count
		}
		if want := float64(top10) / float64(rep.TotalAborts); rep.TopKeyShare != want {
			t.Fatalf("n=%d TopKeyShare = %v, want %v", n, rep.TopKeyShare, want)
		}
	}
	rep := r.Attribution(0)
	var total uint64
	for _, ev := range evs {
		if ev.Kind == EvAbort {
			total++
		}
	}
	if rep.TotalAborts != total || len(rep.Keys) != 10 {
		t.Fatalf("TotalAborts = %d with %d key rows, want %d with the default 10", rep.TotalAborts, len(rep.Keys), total)
	}

	// A ring of 8 that saw 20 aborts — 12 on one key, then 8 on another —
	// reports the 8 it holds.
	w := newRecorder(1, 8, 8)
	old, kept := types.AccountKey(addr(1)), types.AccountKey(addr(2))
	for i := 0; i < 20; i++ {
		key := old
		if i >= 12 {
			key = kept
		}
		recordAbort(w, 0, addr(i%2), key)
	}
	rep = w.Attribution(0)
	if rep.TotalAborts != 8 || len(rep.Keys) != 1 || rep.Keys[0].Key != kept.String() || rep.Keys[0].Count != 8 {
		t.Fatalf("wrapped ring: %d aborts, keys %+v; want 8 on %s", rep.TotalAborts, rep.Keys, kept)
	}
	if rep.TopKeyShare != 1 {
		t.Fatalf("wrapped ring: top-10 share %v, want 1", rep.TopKeyShare)
	}
	if want := []HotKey{{addr(0).String(), 4, 0.5}, {addr(1).String(), 4, 0.5}}; !slices.Equal(rep.Senders, want) {
		t.Fatalf("wrapped ring senders %+v, want %+v", rep.Senders, want)
	}
}
