// The `bpinspect txtrace` and `bpinspect hotkeys` subcommands: per-tx
// lifecycle timelines and conflict attribution from the flight recorder's
// /flight endpoints, on a running node or after a short local
// proposer→pipeline run with the recorder enabled.
//
//	bpinspect hotkeys -blocks 3 -swap-ratio 0.9 -pairs 2   # local, skewed
//	bpinspect hotkeys -addr localhost:9090 -n 20           # live node
//	bpinspect txtrace 0x3fa2                               # local, by prefix
//	bpinspect txtrace -addr localhost:9090 0x3fa2          # live node
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"

	"blockpilot/internal/flight"
)

// hotkeysMain implements `bpinspect hotkeys`.
func hotkeysMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bpinspect hotkeys", flag.ExitOnError)
	var f runFlags
	f.register(fs)
	topN := fs.Int("n", 10, "heavy hitters to report")
	_ = fs.Parse(args)

	if err := f.collect(true, false); err != nil {
		return err
	}
	var rep flight.AttributionReport
	if err := fetch(f.addr, fmt.Sprintf("/flight/hotkeys?n=%d", *topN), &rep); err != nil {
		return err
	}
	fmt.Fprint(w, rep.Render())
	return f.writeTrace()
}

// txtraceMain implements `bpinspect txtrace [<tx hash or prefix>]`. With no
// argument it picks the transaction with the most buffered events (the
// most-retried one — usually the interesting timeline).
func txtraceMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bpinspect txtrace", flag.ExitOnError)
	var f runFlags
	f.register(fs)
	_ = fs.Parse(args)

	if err := f.collect(true, false); err != nil {
		return err
	}
	prefix := fs.Arg(0)
	if prefix == "" {
		var events []flight.EventView
		if err := fetch(f.addr, "/flight/events", &events); err != nil {
			return err
		}
		if prefix = busiestTx(events); prefix == "" {
			return errors.New("no transactions recorded")
		}
		fmt.Fprintf(os.Stderr, "no tx given; showing the busiest one (%s)\n", prefix)
	}
	var views []flight.EventView
	if err := fetch(f.addr, "/flight/txtrace?tx="+url.QueryEscape(prefix), &views); err != nil {
		return err
	}
	fmt.Fprint(w, flight.RenderTimeline(views))
	return f.writeTrace()
}

// busiestTx returns the hash of the tx with the most events.
func busiestTx(events []flight.EventView) string {
	counts := map[string]int{}
	best, bestN := "", 0
	for _, v := range events {
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
