// The one read path every reading subcommand shares. With -addr a view is
// fetched from a live node's -telemetry-addr endpoints; without it the
// subcommand first drives a short local proposer→pipeline run and then
// fetches the same view from this process's own telemetry mux, served in
// memory. Either way the JSON is decoded and rendered by the same code.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/node"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/workload"
)

// runFlags say where a subcommand reads from (-addr) and, without -addr,
// the shape of the local run it reads instead.
type runFlags struct {
	addr      string
	blocks    int
	threads   int
	txs       int
	seed      int64
	swapRatio float64
	pairs     int
	traceOut  string
}

// registerRun registers the flags every reading subcommand takes.
func (f *runFlags) registerRun(fs *flag.FlagSet, blocks int) {
	fs.StringVar(&f.addr, "addr", "", "read a running node's telemetry endpoints (host:port); empty = collect locally")
	fs.IntVar(&f.blocks, "blocks", blocks, "local collection: blocks to propose and validate")
	fs.IntVar(&f.threads, "threads", 8, "local collection: execution threads")
	fs.IntVar(&f.txs, "txs", 132, "local collection: transactions per block")
	fs.Int64Var(&f.seed, "seed", 1, "local collection: workload seed")
	f.swapRatio, f.pairs = -1, -1
}

// register adds what the hotkeys, txtrace, crit and health subcommands take
// on top: the hotspot overrides and -trace-out.
func (f *runFlags) register(fs *flag.FlagSet) {
	f.registerRun(fs, 3)
	fs.Float64Var(&f.swapRatio, "swap-ratio", -1, "local collection: hotspot swap ratio override (0..1)")
	fs.IntVar(&f.pairs, "pairs", -1, "local collection: AMM pair count override")
	fs.StringVar(&f.traceOut, "trace-out", "", "write the node's Perfetto/Chrome trace.json (/flight/trace.json) to this path")
}

// collect does nothing with -addr. Without it, it runs collectLocal with
// telemetry and the trace recorder on.
func (f *runFlags) collect() error {
	if f.addr != "" {
		return nil
	}
	telemetry.Enable()
	trace.Enable()
	return collectLocal(f)
}

// collectLocal drives a proposer node and a validator node over a generated
// workload so every hot-path metric fires at least once. A non-negative
// swapRatio and a positive pairs override the workload's hotspot knobs —
// hotkeys and txtrace use them to force a skewed conflict distribution.
func collectLocal(f *runFlags) error {
	cfg := workload.Default()
	cfg.Seed = f.seed
	cfg.TxPerBlock = f.txs
	if f.swapRatio >= 0 {
		cfg.SwapRatio = f.swapRatio
	}
	if f.pairs > 0 {
		cfg.NumPairs = f.pairs
	}
	gen := workload.New(cfg)
	genesis, params := gen.GenesisState(), chain.DefaultParams()
	proposer := node.New(node.Config{Name: "proposer", Genesis: genesis, Params: params, Threads: f.threads})
	defer proposer.Close()
	validator := node.New(node.Config{Name: "validator", Genesis: genesis, Params: params, Threads: f.threads})

	done := make(chan error, 1)
	go func() {
		var firstErr error
		for out := range validator.Pipe.Results() {
			if out.Err != nil && firstErr == nil {
				firstErr = fmt.Errorf("block %d rejected: %w", out.Block.Number(), out.Err)
			}
		}
		done <- firstErr
	}()

	for b := 0; b < f.blocks; b++ {
		proposer.Pool.AddAll(gen.NextBlockTxs())
		res, err := proposer.Propose()
		if err != nil {
			validator.Close()
			return fmt.Errorf("propose block %d: %w", b+1, err)
		}
		validator.Pipe.Submit(res.Block)
	}
	validator.Close()
	return <-done
}

// get answers path from the node at addr (a bare host:port or a URL), or,
// with addr empty, from this process's telemetry mux.
func get(addr, path string) ([]byte, error) {
	var resp *http.Response
	if addr == "" {
		rec := httptest.NewRecorder()
		telemetry.Handler(nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		resp = rec.Result()
	} else {
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		client := &http.Client{Timeout: 5 * time.Second}
		var err error
		if resp, err = client.Get(strings.TrimSuffix(addr, "/") + path); err != nil {
			return nil, err
		}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// fetch gets path and decodes its JSON payload into out.
func fetch(addr, path string, out any) error {
	body, err := get(addr, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

// writeTrace saves /flight/trace.json to -trace-out, when one is given.
func (f *runFlags) writeTrace() error {
	if f.traceOut == "" {
		return nil
	}
	body, err := get(f.addr, "/flight/trace.json")
	if err != nil {
		return err
	}
	if err := os.WriteFile(f.traceOut, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (open at https://ui.perfetto.dev)\n", f.traceOut)
	return nil
}
