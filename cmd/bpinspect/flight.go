// The `bpinspect txtrace` and `bpinspect hotkeys` subcommands: per-tx
// lifecycle timelines and conflict attribution from the flight recorder.
// Both work against a running node's -telemetry-addr endpoint (remote
// scrape of /flight/*) or by collecting from a short local
// proposer→pipeline run with the flight recorder enabled.
//
//	bpinspect hotkeys -blocks 3 -swap-ratio 0.9 -pairs 2   # local, skewed
//	bpinspect hotkeys -addr localhost:9090 -n 20           # live node
//	bpinspect txtrace 0x3fa2                               # local, by prefix
//	bpinspect txtrace -addr localhost:9090 0x3fa2          # live node
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"blockpilot/internal/flight"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
)

// flightFlags are the options shared by the two flight subcommands.
type flightFlags struct {
	addr      string
	blocks    int
	threads   int
	txs       int
	seed      int64
	swapRatio float64
	pairs     int
	traceOut  string
}

func (f *flightFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.addr, "addr", "", "scrape a running node's /flight endpoints (host:port); empty = collect locally")
	fs.IntVar(&f.blocks, "blocks", 3, "local collection: blocks to propose and validate")
	fs.IntVar(&f.threads, "threads", 8, "local collection: execution threads")
	fs.IntVar(&f.txs, "txs", 132, "local collection: transactions per block")
	fs.Int64Var(&f.seed, "seed", 1, "local collection: workload seed")
	fs.Float64Var(&f.swapRatio, "swap-ratio", -1, "local collection: hotspot swap ratio override (0..1)")
	fs.IntVar(&f.pairs, "pairs", -1, "local collection: AMM pair count override")
	fs.StringVar(&f.traceOut, "trace-out", "", "write a Perfetto/Chrome trace.json of the run to this path (local mode only)")
}

// collectFlightLocal enables the recorder (and, for -trace-out, the block
// tracer whose spans are the file's phase slices), drives the
// proposer→pipeline run, and returns the recorder for reporting.
func collectFlightLocal(f *flightFlags) *flight.Recorder {
	telemetry.Enable()
	rec := flight.Enable(flight.Options{})
	if f.traceOut != "" {
		trace.Enable(0)
	}
	if err := collectLocal(f.blocks, f.threads, f.txs, f.seed, f.swapRatio, f.pairs); err != nil {
		fmt.Fprintln(os.Stderr, "bpinspect:", err)
		os.Exit(1)
	}
	if f.traceOut != "" {
		if err := rec.WriteTraceFile(f.traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "bpinspect: trace-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (open at https://ui.perfetto.dev)\n", f.traceOut)
	}
	return rec
}

// hotkeysMain implements `bpinspect hotkeys`.
func hotkeysMain(args []string) {
	fs := flag.NewFlagSet("bpinspect hotkeys", flag.ExitOnError)
	var f flightFlags
	f.register(fs)
	topN := 10
	fs.IntVar(&topN, "n", 10, "heavy hitters to report")
	_ = fs.Parse(args)

	if f.addr != "" {
		var rep flight.AttributionReport
		if err := scrapeFlight(f.addr, "/flight/hotkeys?n="+fmt.Sprint(topN), &rep); err != nil {
			fmt.Fprintln(os.Stderr, "bpinspect hotkeys:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Render())
		return
	}
	rec := collectFlightLocal(&f)
	fmt.Print(rec.Attribution(topN).Render())
}

// txtraceMain implements `bpinspect txtrace [<tx hash or prefix>]`. With no
// argument in local mode it picks the transaction with the most buffered
// events (the most-retried one — usually the interesting timeline).
func txtraceMain(args []string) {
	fs := flag.NewFlagSet("bpinspect txtrace", flag.ExitOnError)
	var f flightFlags
	f.register(fs)
	_ = fs.Parse(args)
	prefix := fs.Arg(0)

	if f.addr != "" {
		if prefix == "" {
			fmt.Fprintln(os.Stderr, "bpinspect txtrace: a tx hash (or unique prefix) is required with -addr")
			os.Exit(1)
		}
		var views []flight.EventView
		if err := scrapeFlight(f.addr, "/flight/txtrace?tx="+url.QueryEscape(prefix), &views); err != nil {
			fmt.Fprintln(os.Stderr, "bpinspect txtrace:", err)
			os.Exit(1)
		}
		fmt.Print(flight.RenderTimeline(views))
		return
	}

	rec := collectFlightLocal(&f)
	if prefix == "" {
		busiest := busiestTx(rec)
		if busiest == "" {
			fmt.Fprintln(os.Stderr, "bpinspect txtrace: no transactions recorded")
			os.Exit(1)
		}
		prefix = busiest
		fmt.Fprintf(os.Stderr, "no tx given; showing the busiest one (%s)\n", prefix)
	}
	evs, err := rec.TimelineByPrefix(prefix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpinspect txtrace:", err)
		os.Exit(1)
	}
	fmt.Print(flight.RenderTimeline(flight.Views(evs)))
}

// busiestTx returns the hash (string form) of the tx with the most events.
func busiestTx(rec *flight.Recorder) string {
	counts := map[string]int{}
	best, bestN := "", 0
	for _, ev := range rec.Events() {
		v := ev.View()
		if v.Tx == "" {
			continue
		}
		counts[v.Tx]++
		if counts[v.Tx] > bestN {
			best, bestN = v.Tx, counts[v.Tx]
		}
	}
	return best
}

// scrapeFlight fetches one /flight endpoint from a live node and decodes the
// JSON payload into out.
func scrapeFlight(addr, path string, out any) error {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(addr, "/") + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("endpoint returned %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
