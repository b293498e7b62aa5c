// The `bpinspect telemetry` subcommand: render the telemetry registry's
// /metrics.json snapshot as a human-readable table, from a running node's
// -telemetry-addr endpoint or from a short local proposer→pipeline run.
package main

import (
	"flag"
	"fmt"
	"io"

	"blockpilot/internal/telemetry"
)

func telemetryMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bpinspect telemetry", flag.ExitOnError)
	var f runFlags
	f.registerRun(fs, 4)
	_ = fs.Parse(args)

	if err := f.collect(false, false); err != nil {
		return err
	}
	var snap telemetry.Snapshot
	if err := fetch(f.addr, "/metrics.json", &snap); err != nil {
		return err
	}
	fmt.Fprint(w, telemetry.ReportSnapshot(&snap))
	return nil
}
