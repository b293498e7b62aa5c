package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"blockpilot/internal/health"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this run")

// clockFields matches the recorder-relative clock readings a served body
// carries: flight events' ts_ns and the Perfetto file's ts/dur. Everything
// else in the golden bodies is a pure function of what the test records.
var clockFields = regexp.MustCompile(`("(?:ts_ns|ts|dur)":\s*)-?[0-9][0-9.eE+-]*`)

// normalized serves h with every clock field of the body zeroed, headers and
// status kept.
func normalized(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(clockFields.ReplaceAll(rec.Body.Bytes(), []byte("${1}0")))
	})
}

// goldenTx builds a transaction whose hash depends only on n.
func goldenTx(n byte) *types.Transaction {
	var from types.Address
	from[0] = n
	return &types.Transaction{Nonce: uint64(n), Gas: 21000, To: types.HexToAddress("0xdead"), From: from}
}

// fillFlight installs a fresh recorder, records a fixed lifecycle for four
// transactions, and returns one that is not the busiest, for
// the prefix lookup. The short sleeps keep every exec/replay slice longer
// than zero, so the Perfetto file always carries its dur field.
func fillFlight() *types.Transaction {
	trace.Enable()
	a, b, c, d := goldenTx(1), goldenTx(2), goldenTx(3), goldenTx(4)
	hotKey := types.AccountKey(types.HexToAddress("0xdead"))
	slotKey := types.StorageKey(types.HexToAddress("0xbeef"), types.BytesToHash([]byte{7}))
	for _, tx := range []*types.Transaction{a, b, c, d} {
		trace.Admit(tx)
	}
	trace.Pop(0, 0, a, 1)
	trace.ExecStart(0, 0, a, 1)
	time.Sleep(time.Microsecond)
	trace.ExecEnd(0, 0, a, 1)
	trace.Abort(0, 0, a, hotKey, 1, 2, 1)
	trace.Requeue(0, 0, a, 1)
	trace.Pop(0, 1, b, 1)
	trace.ExecStart(0, 1, b, 1)
	time.Sleep(time.Microsecond)
	trace.ExecEnd(0, 1, b, 1)
	trace.Commit(0, 1, b, 1, 1)
	trace.Pop(0, 0, a, 1)
	trace.ExecStart(0, 0, a, 1)
	trace.Extend(0, 0, a, slotKey, 1, 2, 5, 1)
	time.Sleep(time.Microsecond)
	trace.ExecEnd(0, 0, a, 1)
	trace.Commit(0, 0, a, 2, 1)
	for i := 0; i < 3; i++ {
		trace.Pop(0, 1, c, 1)
		trace.Abort(0, 1, c, hotKey, types.Version(3+i), 2, 1)
	}
	trace.Abort(0, 1, c, slotKey, 6, 5, 1)
	trace.Drop(0, 1, c, 1, true)
	trace.Drop(0, 0, d, 1, false)
	trace.StripeWait(1<<2|1<<5, 1500*time.Nanosecond)
	trace.StripeWait(1<<2, 500*time.Nanosecond)
	trace.Seal(0, b, 1, 0, 1)
	trace.Seal(0, a, 2, 1, 1)
	trace.Assign(0, 0, a, 1, 1, 1)
	trace.Assign(0, 1, b, 0, 0, 1)
	trace.ReplayStart(0, 0, a, 1)
	time.Sleep(time.Microsecond)
	trace.ReplayEnd(0, 0, a, 1)
	trace.Reuse(0, 1, b, 0, 1)
	trace.Verify(0, b, true, 1)
	trace.Verify(0, a, false, 1)
	return b
}

// fillTrace records, into the recorder fillFlight installed, the stages of
// two blocks on two validators at fixed times: block 1 complete on both,
// block 2 parked behind its parent on v0 and missing its prepare span on v1.
// Each node's paths sum to 32ms, so every window share is an exact binary
// fraction and sums the same in any order.
func fillTrace() {
	c := trace.Active()
	t0 := time.Unix(1700000000, 0).UTC()
	at := func(ms int64) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	b1, b2 := types.Hash{0: 0xb1, 31: 1}, types.Hash{0: 0xb2, 31: 2}
	for _, sp := range []struct {
		node     string
		stage    trace.Stage
		blk      types.Hash
		from, to int64
	}{
		{"p0", trace.StageSeal, b1, 0, 4},
		{"p0", trace.StageStateCommit, b1, 2, 4},
		{"v0", trace.StageTransfer, b1, 5, 6},
		{"v0", trace.StageQueue, b1, 6, 7},
		{"v0", trace.StagePrepare, b1, 8, 9},
		{"v0", trace.StageExecute, b1, 9, 13},
		{"v0", trace.StageVerify, b1, 10, 14},
		{"v0", trace.StageCommit, b1, 14, 16},
		{"v0", trace.StageStateCommit, b1, 15, 16},
		{"v1", trace.StageTransfer, b1, 6, 8},
		{"v1", trace.StageQueue, b1, 9, 10},
		{"v1", trace.StagePrepare, b1, 11, 13},
		{"v1", trace.StageExecute, b1, 13, 19},
		{"v1", trace.StageVerify, b1, 14, 20},
		{"v1", trace.StageCommit, b1, 20, 24},
		{"v1", trace.StageStateCommit, b1, 22, 24},
		{"p0", trace.StageSeal, b2, 20, 23},
		{"v0", trace.StageTransfer, b2, 24, 25},
		{"v0", trace.StageParentWait, b2, 25, 27},
		{"v0", trace.StageQueue, b2, 27, 28},
		{"v0", trace.StagePrepare, b2, 29, 30},
		{"v0", trace.StageExecute, b2, 30, 33},
		{"v0", trace.StageVerify, b2, 31, 34},
		{"v0", trace.StageCommit, b2, 34, 36},
		{"v1", trace.StageQueue, b2, 23, 24},
		{"v1", trace.StageExecute, b2, 24, 26},
		{"v1", trace.StageVerify, b2, 25, 27},
		{"v1", trace.StageCommit, b2, 27, 28},
	} {
		height := uint64(sp.blk[31])
		c.RecordSpan(sp.node, sp.stage, sp.blk, height, at(sp.from), at(sp.to))
	}
}

// fillHealth installs a recorder on a fake clock with zero runtime readings
// and a scripted probe, then polls it through three progressing samples and
// three stalled ones — enough for one stall incident — and stops it (one
// final sample). Its hour-long interval keeps the background ticker silent.
func fillHealth(t *testing.T) {
	now := time.Unix(1700000000, 0).UTC()
	tick := 0
	commits := []float64{10, 25, 40, 40, 40, 40, 40}
	rec, err := health.Enable(health.Options{
		Interval: time.Hour,
		Now:      func() time.Time { now = now.Add(250 * time.Millisecond); return now },
		Runtime:  func() telemetry.RuntimeInfo { return telemetry.RuntimeInfo{} },
		Probe: func() (map[string]float64, map[string]float64) {
			i := tick
			tick++
			return map[string]float64{
					"blockpilot_proposer_commits_total": commits[i],
					"blockpilot_proposer_aborts_total":  float64(2 * i),
					"blockpilot_validator_blocks_total": float64(min(i, 2)),
				}, map[string]float64{
					"blockpilot_pipeline_blocks_inflight": 1,
					"blockpilot_mempool_pending":          float64(100 - 10*i),
				}
		},
		Rules: []health.Rule{&health.StallRule{
			Windows:          2,
			WorkGauges:       []string{"blockpilot_pipeline_blocks_inflight"},
			ProgressCounters: []string{"blockpilot_proposer_commits_total"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		rec.Poll()
	}
	rec.Stop()
}

// TestGoldenViews pins every recorder endpoint's body and what bpinspect
// renders from it: fixed recorder contents are served by the real telemetry
// mux (clock fields zeroed) and read back through the subcommands' -addr
// path. Run with -update to rewrite testdata/golden.
func TestGoldenViews(t *testing.T) {
	t.Cleanup(func() {
		trace.Disable()
		health.Disable()
	})
	other := fillFlight()
	fillTrace()
	fillHealth(t)

	srv := httptest.NewServer(normalized(telemetry.Handler(nil)))
	defer srv.Close()

	prefix := other.Hash().String()[:10]
	for _, ep := range []struct{ file, path string }{
		{"flight_events.json", "/flight/events"},
		{"flight_txtrace.json", "/flight/txtrace?tx=" + prefix},
		{"flight_hotkeys.json", "/flight/hotkeys?n=5"},
		{"flight_trace.json", "/flight/trace.json"},
		{"trace_blocks.json", "/trace/blocks"},
		{"trace_spans.json", "/trace/blocks?spans=1&node=v1"},
		{"trace_critical_path.json", "/trace/critical-path"},
		{"health_series.json", "/health/series"},
		{"health_incidents.json", "/health/incidents"},
	} {
		resp, err := http.Get(srv.URL + ep.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s %s", ep.path, resp.Status, body)
		}
		if ep.file == "flight_trace.json" {
			if got := resp.Header.Get("Content-Disposition"); got != `attachment; filename="trace.json"` {
				t.Fatalf("%s: Content-Disposition %q", ep.path, got)
			}
		}
		checkGolden(t, ep.file, body)
	}

	for _, view := range []struct {
		file string
		main func([]string, io.Writer) error
		args []string
	}{
		{"hotkeys.txt", hotkeysMain, []string{"-n", "5"}},
		{"txtrace_busiest.txt", txtraceMain, nil},
		{"txtrace_prefix.txt", txtraceMain, []string{prefix}},
		{"crit.txt", critMain, nil},
		{"crit_v1.txt", critMain, []string{"-node", "v1", "-paths", "1"}},
		{"health.txt", healthMain, nil},
	} {
		var out bytes.Buffer
		if err := view.main(append([]string{"-addr", srv.URL}, view.args...), &out); err != nil {
			t.Fatalf("%s: %v", view.file, err)
		}
		checkGolden(t, view.file, out.Bytes())
	}
}

// checkGolden compares got with testdata/golden/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
