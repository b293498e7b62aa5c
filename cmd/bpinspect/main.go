// Command bpinspect prints the conflict anatomy of generated blocks: the
// paper's dependency subgraphs (internal/scheduler), the per-phase time
// breakdown (execution vs commit), and the gas-LPT thread assignment.
// It is the diagnostic companion to cmd/bpbench.
//
//	bpinspect -blocks 3 -threads 16
//	bpinspect -swap-ratio 0.9 -pairs 1        # force a pathological hotspot
//
// The subcommands read a node's telemetry endpoints — the metrics registry
// (`telemetry`), the transaction flight recorder's conflict attribution and
// per-transaction timelines (`hotkeys`, `txtrace`), the block lifecycle
// tracer's critical paths (`crit`) and the runtime health recorder
// (`health`). With -addr they read a live node's -telemetry-addr; without
// it they first drive a short local proposer→pipeline run and read the
// same endpoints from this process, so both modes render the same JSON
// views the same way:
//
//	bpinspect telemetry -addr localhost:9090  # a live node
//	bpinspect telemetry -blocks 4 -threads 8  # a local run
//	bpinspect hotkeys -blocks 3 -swap-ratio 0.9 -pairs 2
//	bpinspect txtrace -addr localhost:9090 0x3fa2
//	bpinspect crit -addr localhost:9090 -n 16 -trace-out trace.json
//	bpinspect health -blocks 4 -threads 8
//
// `adaptive` drives a contended local proposer run with the
// contention-adaptive controller attached and prints what it saw.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/node"
	"blockpilot/internal/scheduler"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

// subcommands are the views bpinspect renders besides the default block
// anatomy; each writes its report to w.
var subcommands = map[string]func(args []string, w io.Writer) error{
	"telemetry": telemetryMain,
	"hotkeys":   hotkeysMain,
	"txtrace":   txtraceMain,
	"crit":      critMain,
	"health":    healthMain,
	"adaptive":  adaptiveMain,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			if err := run(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "bpinspect %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	blocks := flag.Int("blocks", 2, "blocks to inspect")
	threads := flag.Int("threads", 16, "scheduler thread count")
	txPerBlock := flag.Int("txs", 132, "transactions per block")
	swapRatio := flag.Float64("swap-ratio", -1, "override hotspot swap ratio (0..1)")
	pairs := flag.Int("pairs", -1, "override AMM pair count")
	seed := flag.Int64("seed", 1, "workload seed")
	stateBackend := flag.String("state-backend", node.BackendMem, "world-state backend for the inspected run (mem|disk)")
	flag.Parse()

	cfg := workload.Default()
	cfg.Seed = *seed
	cfg.TxPerBlock = *txPerBlock
	if *swapRatio >= 0 {
		cfg.SwapRatio = *swapRatio
	}
	if *pairs > 0 {
		cfg.NumPairs = *pairs
	}
	g := workload.New(cfg)
	st, closeGenesis, err := node.OpenGenesis(g, *stateBackend, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpinspect:", err)
		os.Exit(1)
	}
	defer closeGenesis()
	params := chain.DefaultParams()
	parentHeader := &types.Header{Number: 0, StateRoot: st.Root(), GasLimit: params.GasLimit}
	coinbase := types.HexToAddress("0xc01bbace")

	for b := 0; b < *blocks; b++ {
		txs := g.NextBlockTxs()
		header := &types.Header{
			ParentHash: parentHeader.Hash(), Number: parentHeader.Number + 1,
			Coinbase: coinbase, GasLimit: params.GasLimit, Time: uint64(b + 1),
		}

		// Execute serially, timing each transaction and the commit.
		accum := state.NewMemory(st)
		bc := chain.BlockContextFor(header, params.ChainID)
		perTx := make([]time.Duration, len(txs))
		var exec time.Duration
		for i, tx := range txs {
			o := state.NewOverlay(accum, types.Version(i))
			start := time.Now()
			if _, _, err := chain.ApplyTransaction(o, tx, bc); err != nil {
				fmt.Fprintf(os.Stderr, "bpinspect: tx %d: %v\n", i, err)
				os.Exit(1)
			}
			perTx[i] = time.Since(start)
			exec += perTx[i]
			accum.ApplyChangeSet(o.ChangeSet())
		}
		res, err := chain.ExecuteSerial(st, header, txs, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bpinspect:", err)
			os.Exit(1)
		}

		comps := scheduler.BuildComponents(res.Profile, true)
		stats := scheduler.ComputeStats(comps)
		sched := scheduler.AssignLPT(comps, *threads)

		fmt.Printf("block %d: %d txs, %d gas, exec %v\n",
			b+1, len(txs), res.GasUsed, exec.Round(time.Microsecond))
		fmt.Printf("  dependency graph: %d subgraphs, largest %d txs (%.0f%%), gas-parallelism bound %.2fx\n",
			stats.ComponentCount, stats.LargestComponent, stats.LargestRatio*100, stats.ParallelismUpper)

		// Top components by time.
		type comp struct {
			txs int
			d   time.Duration
		}
		var byTime []comp
		for _, c := range comps {
			var d time.Duration
			for _, i := range c.TxIndices {
				d += perTx[i]
			}
			byTime = append(byTime, comp{txs: len(c.TxIndices), d: d})
		}
		sort.Slice(byTime, func(i, j int) bool { return byTime[i].d > byTime[j].d })
		fmt.Printf("  heaviest subgraphs (txs @ time): ")
		for i := 0; i < len(byTime) && i < 5; i++ {
			fmt.Printf("%d@%v  ", byTime[i].txs, byTime[i].d.Round(time.Microsecond))
		}
		fmt.Println()

		// Thread assignment balance.
		var lanes []time.Duration
		for _, lane := range sched.ThreadTxs {
			var d time.Duration
			for _, i := range lane {
				d += perTx[i]
			}
			lanes = append(lanes, d)
		}
		sort.Slice(lanes, func(i, j int) bool { return lanes[i] > lanes[j] })
		fmt.Printf("  gas-LPT over %d threads: makespan %v (ideal %v)\n\n",
			*threads, lanes[0].Round(time.Microsecond),
			(exec / time.Duration(*threads)).Round(time.Microsecond))

		st = res.State
		block := chain.SealBlock(parentHeader, coinbase, uint64(b+1), txs, res, params)
		parentHeader = &block.Header
	}
}
