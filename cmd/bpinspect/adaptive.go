// The `bpinspect adaptive` subcommand: what the contention-adaptive
// scheduler is seeing and doing. It drives a short contended local
// proposer run with one controller attached across every block — the
// production shape: the window persists, block 1 feeds it, later blocks
// schedule around it — then prints the controller's hot-set / window
// snapshot, the adaptive telemetry counters, and the mempool's most
// requeued (and so most demoted) senders.
//
//	bpinspect adaptive                         # hotspot workload, occ-wsi
//	bpinspect adaptive -engine mv-stm -blocks 6
//	bpinspect adaptive -swap-ratio 0.5 -pairs 8
package main

import (
	"flag"
	"fmt"
	"io"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/node"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

func adaptiveMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bpinspect adaptive", flag.ExitOnError)
	blocks := fs.Int("blocks", 4, "blocks to propose with the controller attached")
	threads := fs.Int("threads", 8, "proposer execution threads")
	txs := fs.Int("txs", 132, "transactions per block")
	seed := fs.Int64("seed", 1, "workload seed")
	engine := fs.String("engine", core.EngineOCCWSI, "proposer engine: occ-wsi or mv-stm")
	swapRatio := fs.Float64("swap-ratio", 0.9, "hotspot swap ratio (0..1); high = contended")
	pairs := fs.Int("pairs", 1, "AMM pair count; 1 = single block-wide hotspot")
	topN := fs.Int("top", 10, "most-requeued senders to list")
	fs.Parse(args)

	telemetry.Enable()
	cfg := workload.Default()
	cfg.Seed = *seed
	cfg.TxPerBlock = *txs
	if *swapRatio >= 0 {
		cfg.SwapRatio = *swapRatio
		cfg.NativeRatio = 1 - *swapRatio - cfg.MixerRatio - cfg.DeployRatio
	}
	if *pairs > 0 {
		cfg.NumPairs = *pairs
	}
	gen := workload.New(cfg)
	ctrl := adaptive.New(adaptive.Config{})
	n := node.New(node.Config{
		Genesis: gen.GenesisState(), Params: chain.DefaultParams(), Threads: *threads,
		Coinbase: types.HexToAddress("0xc01bbace"), Engine: *engine, Adaptive: ctrl,
	})
	defer n.Close()
	for b := 0; b < *blocks; b++ {
		n.Pool.AddAll(gen.NextBlockTxs())
		if _, err := n.Propose(); err != nil {
			return err
		}
	}

	snap := ctrl.Snapshot()
	fmt.Fprint(w, snap.Render())

	fmt.Fprintf(w, "\nAdaptive telemetry:\n")
	fmt.Fprintf(w, "  %-36s %d\n", "blockpilot_adaptive_serial_lane_txs_total", telemetry.AdaptiveSerialLaneTxs.Value())
	fmt.Fprintf(w, "  %-36s %d\n", "blockpilot_adaptive_merged_credits_total", telemetry.AdaptiveMergedCredits.Value())
	fmt.Fprintf(w, "  %-36s %d\n", "blockpilot_adaptive_demoted_senders_total", telemetry.AdaptiveDemotedSenders.Value())
	fmt.Fprintf(w, "  %-36s %d\n", "blockpilot_adaptive_hot_accounts", telemetry.AdaptiveHotAccounts.Value())
	fmt.Fprintf(w, "  %-36s %.3f\n", "blockpilot_adaptive_lane_occupancy", telemetry.AdaptiveLaneOccupancy.Value())

	if stats := n.Pool.TopRequeued(*topN); len(stats) > 0 {
		fmt.Fprintf(w, "\nMost requeued senders (abort-aware ordering input):\n")
		fmt.Fprintf(w, "  %-44s %9s %5s\n", "sender", "requeues", "tier")
		for _, s := range stats {
			fmt.Fprintf(w, "  %-44s %9d %5d\n", s.Sender, s.Requeues, s.Tier)
		}
	} else {
		fmt.Fprintf(w, "\nNo sender was ever requeued in this run.\n")
	}
	return nil
}
