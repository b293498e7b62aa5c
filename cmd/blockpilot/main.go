// Command blockpilot runs an end-to-end node simulation of the framework:
// several proposer nodes and validator nodes connected by an in-process
// gossip fabric, a round-based consensus schedule with configurable forks,
// OCC-WSI parallel block packing on the proposers, and the multi-block
// validation pipeline on every node.
//
//	blockpilot -rounds 10 -proposers 3 -validators 2 -fork-prob 0.4 -threads 8
//
// Each round prints the proposed block(s), the per-node validation results
// and the resulting head. Forked rounds demonstrate validators absorbing
// multiple same-height blocks concurrently (paper §3.4 / Fig. 5).
//
// -trace enables the block lifecycle tracer: spans stitch across nodes via
// contexts carried on gossip messages, /trace/blocks and /trace/critical-path
// serve them live, and the run ends with a critical-path / stall-attribution
// summary (drill in with `bpinspect crit -addr ...`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"time"

	"blockpilot/internal/blockdb"
	"blockpilot/internal/chain"
	"blockpilot/internal/consensus"
	"blockpilot/internal/core"
	"blockpilot/internal/flight"
	"blockpilot/internal/health"
	"blockpilot/internal/mempool"
	"blockpilot/internal/network"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

type node struct {
	name  string
	chain *chain.Chain
	pipe  *pipeline.Pipeline
	net   *network.Node
	seen  int // blocks validated
	mu    sync.Mutex
}

func main() {
	rounds := flag.Int("rounds", 8, "consensus rounds to run")
	proposers := flag.Int("proposers", 3, "proposer nodes")
	validators := flag.Int("validators", 2, "validator-only nodes")
	threads := flag.Int("threads", 8, "execution threads per node")
	forkProb := flag.Float64("fork-prob", 0.35, "per-round fork probability")
	txs := flag.Int("txs", 132, "transactions per block")
	seed := flag.Int64("seed", 1, "workload + consensus seed")
	datadir := flag.String("datadir", "", "persist validator-0's blocks to this directory (optional)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /metrics.json, /report and /debug/pprof on this address (e.g. :9090)")
	flightOn := flag.Bool("flight", false, "enable the transaction flight recorder (per-tx lifecycle events + conflict attribution)")
	flightOut := flag.String("flight-out", "", "write a Perfetto/Chrome trace.json of the run to this path (implies -flight and -trace)")
	traceOn := flag.Bool("trace", false, "enable the block lifecycle tracer (cross-node spans, critical paths, stall attribution)")
	healthOn := flag.Bool("health", false, "enable the runtime health recorder (continuous sampling, stall watchdog, incident bundles)")
	healthOut := flag.String("health-out", "", "append health samples as JSONL to this path (implies -health)")
	healthIncidents := flag.String("health-incidents", "", "write watchdog incident bundles under this directory (implies -health)")
	stateBackend := flag.String("state-backend", "mem", "world-state backend: mem (per-process maps) or disk (persistent node store with flat-snapshot reads)")
	stateDir := flag.String("state-dir", "", "disk backend: directory for the node store (\"\" = temp dir, removed at exit)")
	flag.Parse()

	// The HTTP server shuts down when the run finishes or on SIGINT.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *flightOut != "" {
		// The file's per-node phase slices are the block tracer's spans.
		*flightOn, *traceOn = true, true
	}
	if *flightOn {
		flight.Enable()
		fmt.Println("flight recorder: enabled")
	}
	if *traceOn {
		trace.Enable()
		fmt.Println("block tracer: enabled")
	}
	if *healthOut != "" || *healthIncidents != "" {
		*healthOn = true
	}
	var healthFile *os.File
	if *healthOn {
		opts := health.Options{IncidentDir: *healthIncidents}
		if opts.IncidentDir == "" {
			opts.IncidentDir = filepath.Join(os.TempDir(), "blockpilot-incidents")
		}
		if *healthOut != "" {
			f, err := os.Create(*healthOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "blockpilot: health-out:", err)
				os.Exit(1)
			}
			healthFile = f
			opts.Out = f
		}
		rec, err := health.Enable(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blockpilot: health:", err)
			os.Exit(1)
		}
		fmt.Printf("health recorder: enabled (interval %v, incidents under %s)\n", rec.Interval(), opts.IncidentDir)
	}

	if *telemetryAddr != "" {
		srv, errc := telemetry.ServeContext(ctx, *telemetryAddr, nil)
		defer srv.Close()
		go func() {
			if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "blockpilot: telemetry server:", err)
			}
		}()
		fmt.Printf("telemetry: serving http://%s/metrics (+ /healthz, /metrics.json, /trace/blocks, /trace/critical-path, /report, /flight/*, /health/*, /debug/pprof)\n", *telemetryAddr)
	}

	var store *blockdb.Store
	if *datadir != "" {
		var err error
		store, err = blockdb.Open(filepath.Join(*datadir, "blocks.log"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "blockpilot:", err)
			os.Exit(1)
		}
		defer store.Close()
		if n := store.Len(); n > 0 {
			fmt.Printf("block store: resuming with %d blocks on disk (max height %d)\n", n, store.MaxHeight())
		}
	}

	cfg := workload.Default()
	cfg.Seed = *seed
	cfg.TxPerBlock = *txs
	gen := workload.New(cfg)
	var genesis *state.Snapshot
	switch *stateBackend {
	case "mem":
		genesis = gen.GenesisState()
	case "disk":
		dir := *stateDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "blockpilot-state-*")
			if err != nil {
				fmt.Fprintln(os.Stderr, "blockpilot:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		sdb, err := trie.OpenDatabase(filepath.Join(dir, "state.db"), 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "blockpilot:", err)
			os.Exit(1)
		}
		defer sdb.Close()
		genesis = gen.GenesisStateInto(sdb, 0)
		fmt.Printf("state store: %s (genesis root %s)\n", sdb.Store().Path(), genesis.Root())
	default:
		fmt.Fprintf(os.Stderr, "blockpilot: unknown -state-backend %q (want mem|disk)\n", *stateBackend)
		os.Exit(1)
	}
	params := chain.DefaultParams()

	// Proposer identities double as coinbases.
	ids := make([]types.Address, *proposers)
	for i := range ids {
		ids[i] = types.HexToAddress(fmt.Sprintf("0x%040x", 0xABC0+i))
	}
	engine := consensus.NewEngine(*seed, ids, *forkProb, 3)
	fabric := network.New(200 * time.Microsecond)

	nodes := make([]*node, 0, *proposers+*validators)
	addNode := func(name string) *node {
		c := chain.NewChain(genesis.Copy(), params)
		c.SetTrace(name, trace.Active())
		n := &node{
			name:  name,
			chain: c,
			pipe:  pipeline.New(c, validator.DefaultConfig(*threads), nil),
			net:   fabric.Join(name, 256),
		}
		n.pipe.SetNode(name)
		nodes = append(nodes, n)
		return n
	}
	proposerNodes := make(map[types.Address]*node, *proposers)
	for i, id := range ids {
		proposerNodes[id] = addNode(fmt.Sprintf("proposer-%d", i))
	}
	for i := 0; i < *validators; i++ {
		addNode(fmt.Sprintf("validator-%d", i))
	}

	// Every node pumps gossip into its pipeline.
	for _, n := range nodes {
		n := n
		go func() {
			for msg := range n.net.Inbox() {
				n.pipe.Submit(msg.Block)
			}
		}()
	}
	// Outcome collectors.
	outcomes := make(chan string, 1024)
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for out := range n.pipe.Results() {
				n.mu.Lock()
				n.seen++
				n.mu.Unlock()
				if out.Err != nil {
					outcomes <- fmt.Sprintf("  %s REJECTED block %s: %v", n.name, short(out.Block.Hash()), out.Err)
					continue
				}
				if store != nil && n.name == "validator-0" {
					if err := store.Put(out.Block); err != nil {
						outcomes <- fmt.Sprintf("  %s persist error: %v", n.name, err)
					}
				}
				outcomes <- fmt.Sprintf("  %-11s validated %s (height %d) in %v — %d subgraphs, largest %.0f%%",
					n.name, short(out.Block.Hash()), out.Block.Number(), out.Elapsed.Round(time.Millisecond),
					out.Result.Stats.ComponentCount, out.Result.Stats.LargestRatio*100)
			}
		}()
	}

	fmt.Printf("BlockPilot node simulation: %d proposers, %d validators, %d threads, fork-prob %.2f\n\n",
		*proposers, *validators, *threads, *forkProb)

	totalBlocks := 0
	for r := 0; r < *rounds; r++ {
		roundTxs := gen.NextBlockTxs()
		winners := engine.ProposersForRound(uint64(r))
		fmt.Printf("round %d (height %d): %d proposer(s) elected\n", r+1, r+1, len(winners))

		// Every elected proposer packs on its round-start head (competing
		// proposals at one height are the point of a fork); broadcasts only
		// happen after all packing so no proposer races ahead.
		type proposal struct {
			node  *node
			block *types.Block
		}
		var proposals []proposal
		for _, coinbase := range winners {
			pn := proposerNodes[coinbase]
			pool := mempool.New()
			pool.AddAll(roundTxs)
			head := pn.chain.Head()
			start := time.Now()
			res, err := core.Propose(pn.chain.StateOf(head.Hash()), &head.Header, pool, core.ProposerConfig{
				Threads:  *threads,
				Coinbase: coinbase,
				Time:     uint64(r + 1),
				Node:     pn.name,
			}, params)
			if err != nil {
				fmt.Fprintf(os.Stderr, "propose: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  %-11s packed  %s: %d txs, %d gas, %d aborts, in %v\n",
				pn.name, short(res.Block.Hash()), res.Committed, res.GasUsed, res.Aborts,
				time.Since(start).Round(time.Millisecond))
			proposals = append(proposals, proposal{node: pn, block: res.Block})
			totalBlocks++
		}
		for _, p := range proposals {
			// The proposer validates its own block through its pipeline too,
			// and gossips it to everyone else.
			p.node.pipe.Submit(p.block)
			p.node.net.Broadcast(p.block)
		}

		// Lockstep: wait until every node has an outcome for every block of
		// this round, then drain the outcome log.
		expected := totalBlocks * len(nodes)
		for {
			done := 0
			for _, n := range nodes {
				n.mu.Lock()
				done += n.seen
				n.mu.Unlock()
			}
			if done >= expected {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		for drained := false; !drained; {
			select {
			case line := <-outcomes:
				fmt.Println(line)
			default:
				drained = true
			}
		}
		head := nodes[0].chain.Head()
		fmt.Printf("  head: %s (height %d, %d block(s) stored at this height)\n\n",
			short(head.Hash()), head.Number(), len(nodes[0].chain.BlocksAt(head.Number())))
	}

	// Shut down.
	fabric.Close()
	for _, n := range nodes {
		n.pipe.Close()
	}
	wg.Wait()

	fmt.Printf("done: %d rounds, %d blocks proposed; every node converged on height %d\n",
		*rounds, totalBlocks, nodes[0].chain.Height())
	if *telemetryAddr != "" {
		s := telemetry.TakeSnapshot()
		fmt.Printf("telemetry: %.0f commits, %.0f aborts, %.0f reserve conflicts, %.0f blocks validated, %.0f rejected\n",
			s.Counter("blockpilot_proposer_commits_total"),
			s.Counter("blockpilot_proposer_aborts_total"),
			s.Counter("blockpilot_proposer_reserve_conflicts_total"),
			s.Counter("blockpilot_validator_blocks_total"),
			s.Counter("blockpilot_validator_rejects_total"))
	}
	if tr := trace.Active(); tr != nil {
		win := tr.Window(0, "")
		fmt.Println()
		fmt.Printf("block tracer: %d spans buffered (%d recorded)\n", tr.Len(), tr.Total())
		fmt.Print(trace.RenderWindowView(win))
	}
	if rec := flight.Active(); rec != nil {
		fmt.Printf("flight recorder: %d events buffered\n", rec.Total())
		fmt.Print(rec.Attribution(10).Render())
		if *flightOut != "" {
			if err := rec.WriteTraceFile(*flightOut); err != nil {
				fmt.Fprintln(os.Stderr, "blockpilot: flight-out:", err)
				os.Exit(1)
			}
			fmt.Printf("flight recorder: wrote %s (open at https://ui.perfetto.dev)\n", *flightOut)
		}
	}
	if rec := health.Active(); rec != nil {
		incidents, dropped := rec.Incidents()
		fmt.Printf("health recorder: %d samples, %d incident(s)\n", len(rec.Series()), len(incidents))
		for _, inc := range incidents {
			fmt.Printf("  incident #%d %s: %s → %s\n", inc.Seq, inc.Rule, inc.Detail, inc.BundleDir)
		}
		if dropped > 0 {
			fmt.Printf("  (%d incident(s) dropped past the cap)\n", dropped)
		}
		health.Disable() // final poll + JSONL flush
		if healthFile != nil {
			healthFile.Close()
		}
	}
	for _, n := range nodes {
		if n.chain.Height() != nodes[0].chain.Height() {
			fmt.Fprintf(os.Stderr, "node %s diverged: height %d\n", n.name, n.chain.Height())
			os.Exit(1)
		}
	}
}

func short(h types.Hash) string { return h.String()[:10] }
