// The `bpinspect crit` subcommand: per-block critical-path waterfalls and
// the windowed stall-attribution summary from the block lifecycle tracer's
// /trace/blocks and /trace/critical-path, on a running node or after a short
// local proposer→pipeline run with tracing enabled.
//
//	bpinspect crit -blocks 4 -threads 8               # local, default workload
//	bpinspect crit -swap-ratio 0.85 -pairs 3          # local, skewed hotspot
//	bpinspect crit -addr localhost:9090 -n 16         # live node, newest 16
//	bpinspect crit -trace-out trace.json              # + merged Perfetto export
package main

import (
	"flag"
	"fmt"
	"io"
	"net/url"

	"blockpilot/internal/trace"
)

// critMain implements `bpinspect crit`.
func critMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bpinspect crit", flag.ExitOnError)
	var f runFlags
	f.register(fs)
	window := fs.Int("n", 0, "window size: newest n block paths (0 = everything buffered)")
	node := fs.String("node", "", "only show paths observed on this node")
	maxPaths := fs.Int("paths", 8, "per-block waterfalls to print, newest last (0 = summary only)")
	_ = fs.Parse(args)

	if err := f.collect(false, true); err != nil {
		return err
	}
	q := fmt.Sprintf("?n=%d&node=%s", *window, url.QueryEscape(*node))
	var paths []trace.BlockPath
	if err := fetch(f.addr, "/trace/blocks"+q, &paths); err != nil {
		return err
	}
	var win trace.WindowSummary
	if err := fetch(f.addr, "/trace/critical-path"+q, &win); err != nil {
		return err
	}
	printCrit(w, paths, win, *maxPaths)
	return f.writeTrace()
}

// printCrit renders the newest waterfalls followed by the window summary.
func printCrit(w io.Writer, paths []trace.BlockPath, win trace.WindowSummary, maxPaths int) {
	if len(paths) == 0 {
		fmt.Fprintln(w, "no block paths recorded (is tracing enabled?)")
		return
	}
	show := paths
	if maxPaths >= 0 && len(show) > maxPaths {
		show = show[len(show)-maxPaths:]
	}
	for i := range show {
		fmt.Fprint(w, trace.RenderPathView(show[i]))
	}
	if len(show) < len(paths) {
		fmt.Fprintf(w, "(%d older path(s) not shown; raise -paths)\n", len(paths)-len(show))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, trace.RenderWindowView(win))
}
