// The `bpinspect telemetry` subcommand: render the telemetry registry as a
// human-readable table, either scraped from a running node's
// -telemetry-addr JSON endpoint or collected from a short local
// proposer→pipeline run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

func telemetryMain(args []string) {
	fs := flag.NewFlagSet("bpinspect telemetry", flag.ExitOnError)
	addr := fs.String("addr", "", "scrape a running node's telemetry endpoint (host:port); empty = collect locally")
	blocks := fs.Int("blocks", 4, "local collection: blocks to propose and validate")
	threads := fs.Int("threads", 8, "local collection: execution threads")
	txPerBlock := fs.Int("txs", 132, "local collection: transactions per block")
	seed := fs.Int64("seed", 1, "local collection: workload seed")
	_ = fs.Parse(args)

	if *addr != "" {
		snap, err := scrapeSnapshot(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bpinspect telemetry:", err)
			os.Exit(1)
		}
		fmt.Print(telemetry.ReportSnapshot(snap))
		return
	}

	telemetry.Enable()
	if err := collectLocal(*blocks, *threads, *txPerBlock, *seed, -1, -1); err != nil {
		fmt.Fprintln(os.Stderr, "bpinspect telemetry:", err)
		os.Exit(1)
	}
	fmt.Print(telemetry.Report())
}

// scrapeSnapshot fetches /metrics.json from a live node.
func scrapeSnapshot(addr string) (*telemetry.Snapshot, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(addr, "/") + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("endpoint returned %s", resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics.json: %w", err)
	}
	return &snap, nil
}

// collectLocal drives the full proposer → pipeline path over a generated
// workload so every hot-path metric fires at least once. swapRatio and pairs
// override the workload's hotspot contention knobs when non-negative
// (swapRatio in [0,1], pairs ≥ 1) — the flight subcommands use them to force
// a skewed conflict distribution.
func collectLocal(blocks, threads, txPerBlock int, seed int64, swapRatio float64, pairs int) error {
	cfg := workload.Default()
	cfg.Seed = seed
	cfg.TxPerBlock = txPerBlock
	if swapRatio >= 0 {
		cfg.SwapRatio = swapRatio
	}
	if pairs > 0 {
		cfg.NumPairs = pairs
	}
	gen := workload.New(cfg)
	params := chain.DefaultParams()
	proposerChain := chain.NewChain(gen.GenesisState(), params)
	validatorChain := chain.NewChain(gen.GenesisState(), params)
	pipe := pipeline.New(validatorChain, validator.DefaultConfig(threads), nil)

	done := make(chan error, 1)
	go func() {
		var firstErr error
		for out := range pipe.Results() {
			if out.Err != nil && firstErr == nil {
				firstErr = fmt.Errorf("block %d rejected: %w", out.Block.Number(), out.Err)
			}
		}
		done <- firstErr
	}()

	for b := 0; b < blocks; b++ {
		pool := mempool.New()
		pool.AddAll(gen.NextBlockTxs())
		head := proposerChain.Head()
		res, err := core.Propose(proposerChain.StateOf(head.Hash()), &head.Header, pool, core.ProposerConfig{
			Threads: threads,
			Time:    uint64(b + 1),
		}, params)
		if err != nil {
			return fmt.Errorf("propose block %d: %w", b+1, err)
		}
		if err := proposerChain.InsertWithReceipts(res.Block, res.State, res.Receipts); err != nil {
			return fmt.Errorf("insert block %d: %w", b+1, err)
		}
		pipe.Submit(res.Block)
	}
	pipe.Close()
	return <-done
}
