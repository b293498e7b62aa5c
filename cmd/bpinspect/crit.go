// The `bpinspect crit` subcommand: per-block critical-path waterfalls and
// the windowed stall-attribution summary from the block lifecycle tracer.
// Works against a running node's -telemetry-addr endpoint (remote scrape of
// /trace/blocks + /trace/critical-path) or by collecting from a short local
// proposer→pipeline run with tracing enabled.
//
//	bpinspect crit -blocks 4 -threads 8               # local, default workload
//	bpinspect crit -swap-ratio 0.85 -pairs 3          # local, skewed hotspot
//	bpinspect crit -addr localhost:9090 -n 16         # live node, newest 16
//	bpinspect crit -trace-out trace.json              # + merged Perfetto export
package main

import (
	"flag"
	"fmt"
	"net/url"
	"os"

	"blockpilot/internal/flight"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
)

// critMain implements `bpinspect crit`.
func critMain(args []string) {
	fs := flag.NewFlagSet("bpinspect crit", flag.ExitOnError)
	var f flightFlags
	f.register(fs)
	window := fs.Int("n", 0, "window size: newest n block paths (0 = everything buffered)")
	node := fs.String("node", "", "only show paths observed on this node")
	maxPaths := fs.Int("paths", 8, "per-block waterfalls to print, newest last (0 = summary only)")
	_ = fs.Parse(args)

	if f.addr != "" {
		q := fmt.Sprintf("?n=%d&node=%s", *window, url.QueryEscape(*node))
		var paths []trace.PathView
		if err := scrapeFlight(f.addr, "/trace/blocks"+q, &paths); err != nil {
			fmt.Fprintln(os.Stderr, "bpinspect crit:", err)
			os.Exit(1)
		}
		var win trace.WindowView
		if err := scrapeFlight(f.addr, "/trace/critical-path"+q, &win); err != nil {
			fmt.Fprintln(os.Stderr, "bpinspect crit:", err)
			os.Exit(1)
		}
		printCrit(paths, win, *maxPaths)
		return
	}

	telemetry.Enable()
	tr := trace.Enable(0)
	rec := flight.Enable(flight.Options{})
	if err := collectLocal(f.blocks, f.threads, f.txs, f.seed, f.swapRatio, f.pairs); err != nil {
		fmt.Fprintln(os.Stderr, "bpinspect crit:", err)
		os.Exit(1)
	}

	paths := tr.Paths(*node)
	if *window > 0 && len(paths) > *window {
		paths = paths[len(paths)-*window:]
	}
	views := make([]trace.PathView, 0, len(paths))
	for i := range paths {
		views = append(views, paths[i].View())
	}
	win := tr.Window(*window, *node)
	printCrit(views, win.View(), *maxPaths)

	if f.traceOut != "" {
		if err := rec.WriteTraceFile(f.traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "bpinspect crit: trace-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (open at https://ui.perfetto.dev)\n", f.traceOut)
	}
}

// printCrit renders the newest waterfalls followed by the window summary.
func printCrit(paths []trace.PathView, win trace.WindowView, maxPaths int) {
	if len(paths) == 0 {
		fmt.Println("no block paths recorded (is tracing enabled?)")
		return
	}
	show := paths
	if maxPaths >= 0 && len(show) > maxPaths {
		show = show[len(show)-maxPaths:]
	}
	for i := range show {
		fmt.Print(trace.RenderPathView(show[i]))
	}
	if len(show) < len(paths) {
		fmt.Printf("(%d older path(s) not shown; raise -paths)\n", len(paths)-len(show))
	}
	fmt.Println()
	fmt.Print(trace.RenderWindowView(win))
}
