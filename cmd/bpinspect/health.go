// The `bpinspect health` subcommand: runtime health time-series sparklines
// and watchdog incident history from /health/series and /health/incidents,
// on a running node or after a short local proposer→pipeline run sampled at
// a fast interval.
//
//	bpinspect health -blocks 4 -threads 8        # local, default workload
//	bpinspect health -addr localhost:9090 -n 120 # live node, newest 120 samples
package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"blockpilot/internal/health"
)

// healthMain implements `bpinspect health`.
func healthMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bpinspect health", flag.ExitOnError)
	var f runFlags
	f.register(fs)
	window := fs.Int("n", 0, "newest n samples (0 = everything buffered)")
	interval := fs.Duration("interval", 10*time.Millisecond, "local collection: sampler interval (fast, to catch a short run)")
	_ = fs.Parse(args)

	if f.addr == "" {
		if _, err := health.Enable(health.Options{Interval: *interval}); err != nil {
			return err
		}
	}
	if err := f.collect(false, false); err != nil {
		return err
	}
	if rec := health.Active(); rec != nil {
		rec.Stop() // a final quiescent sample; the recorder stays installed so /health/* answers
	}

	var series health.SeriesPayload
	if err := fetch(f.addr, fmt.Sprintf("/health/series?n=%d", *window), &series); err != nil {
		return err
	}
	var incidents health.IncidentsPayload
	if err := fetch(f.addr, "/health/incidents", &incidents); err != nil {
		return err
	}
	fmt.Fprint(w, health.RenderSeries(series.Samples, time.Duration(series.IntervalS*float64(time.Second))))
	fmt.Fprintln(w)
	fmt.Fprint(w, health.RenderIncidents(incidents.Incidents, incidents.Dropped))
	return f.writeTrace()
}
