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
// -trace installs the trace recorder: per-transaction events and block
// stages, stitched across nodes by each block's hash and the send time
// carried on gossip messages, served live under /trace/ and /flight/; the
// run ends with a critical-path / stall-attribution summary and the
// conflict-attribution report (drill in with `bpinspect crit -addr ...`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"time"

	"blockpilot/internal/blockdb"
	"blockpilot/internal/chain"
	"blockpilot/internal/consensus"
	"blockpilot/internal/health"
	"blockpilot/internal/network"
	"blockpilot/internal/node"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "blockpilot:", err)
		os.Exit(1)
	}
}

// member is one node of the simulation and its gossip endpoint.
type member struct {
	*node.Node
	ep *network.Node
}

// run parses args, runs the simulation and writes its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("blockpilot", flag.ContinueOnError)
	rounds := fs.Int("rounds", 8, "consensus rounds to run")
	proposers := fs.Int("proposers", 3, "proposer nodes")
	validators := fs.Int("validators", 2, "validator-only nodes")
	threads := fs.Int("threads", 8, "execution threads per node")
	forkProb := fs.Float64("fork-prob", 0.35, "per-round fork probability")
	txs := fs.Int("txs", 132, "transactions per block")
	seed := fs.Int64("seed", 1, "workload + consensus seed")
	datadir := fs.String("datadir", "", "keep validator-0's blocks in DIR/blocks.log and, with -state-backend disk, the node store in DIR/state.db (\"\" = no block log; disk state in a temp dir removed at exit)")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /metrics.json, /report and /debug/pprof on this address (e.g. :9090)")
	traceOn := fs.Bool("trace", false, "enable the trace recorder (per-tx lifecycle events, conflict attribution, cross-node block stages, critical paths)")
	traceOut := fs.String("trace-out", "", "write a Perfetto/Chrome trace.json of the run to this path (implies -trace)")
	healthOn := fs.Bool("health", false, "enable the runtime health recorder (continuous sampling, stall watchdog, incident bundles)")
	healthOut := fs.String("health-out", "", "append health samples as JSONL to this path (implies -health)")
	healthIncidents := fs.String("health-incidents", "", "write watchdog incident bundles under this directory (implies -health)")
	stateBackend := fs.String("state-backend", node.BackendMem, "world-state backend: mem (per-process maps) or disk (persistent node store read through its node cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The HTTP server shuts down when the run finishes or on SIGINT.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *traceOn || *traceOut != "" {
		trace.Enable()
		fmt.Fprintln(w, "trace recorder: enabled")
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
				return fmt.Errorf("health-out: %w", err)
			}
			healthFile = f
			opts.Out = f
		}
		rec, err := health.Enable(opts)
		if err != nil {
			return fmt.Errorf("health: %w", err)
		}
		fmt.Fprintf(w, "health recorder: enabled (interval %v, incidents under %s)\n", rec.Interval(), opts.IncidentDir)
	}

	if *telemetryAddr != "" {
		srv, errc := telemetry.ServeContext(ctx, *telemetryAddr, nil)
		defer srv.Close()
		go func() {
			if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "blockpilot: telemetry server:", err)
			}
		}()
		fmt.Fprintf(w, "telemetry: serving http://%s/metrics (+ /healthz, /metrics.json, /trace/blocks, /trace/critical-path, /report, /flight/*, /health/*, /debug/pprof)\n", *telemetryAddr)
	}

	var store *blockdb.Store
	if *datadir != "" {
		var err error
		if store, err = blockdb.Open(filepath.Join(*datadir, "blocks.log")); err != nil {
			return err
		}
		defer store.Close()
		if n := store.Len(); n > 0 {
			fmt.Fprintf(w, "block store: resuming with %d blocks on disk (max height %d); they are not replayed, the run starts from genesis\n", n, store.MaxHeight())
		}
	}

	cfg := workload.Default()
	cfg.Seed = *seed
	cfg.TxPerBlock = *txs
	gen := workload.New(cfg)
	genesis, closeGenesis, err := node.OpenGenesis(gen, *stateBackend, *datadir)
	if err != nil {
		return err
	}
	defer closeGenesis()
	fmt.Fprintf(w, "state: %s backend, genesis root %s\n", *stateBackend, genesis.Root())
	params := chain.DefaultParams()

	// Proposer identities double as coinbases.
	ids := make([]types.Address, *proposers)
	for i := range ids {
		ids[i] = types.HexToAddress(fmt.Sprintf("0x%040x", 0xABC0+i))
	}
	engine := consensus.NewEngine(*seed, ids, *forkProb, 3)
	fabric := network.New(200 * time.Microsecond)

	// Every node pumps gossip into its pipeline and reports each outcome as
	// one line on the fan-in channel; the buffer holds any outcome the final
	// Close abandons, which nobody reads.
	outcomes := make(chan string, 1024)
	var wg sync.WaitGroup
	members := make([]member, 0, *proposers+*validators)
	join := func(name string, coinbase types.Address) member {
		m := member{
			Node: node.New(node.Config{Name: name, Genesis: genesis.Copy(), Params: params, Threads: *threads, Coinbase: coinbase}),
			ep:   fabric.Join(name, 256),
		}
		go func() {
			for msg := range m.ep.Inbox() {
				m.Pipe.Submit(msg.Block)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for out := range m.Pipe.Results() {
				outcomes <- describe(name, out, store)
			}
		}()
		members = append(members, m)
		return m
	}
	byID := make(map[types.Address]member, *proposers)
	for i, id := range ids {
		byID[id] = join(fmt.Sprintf("proposer-%d", i), id)
	}
	for i := 0; i < *validators; i++ {
		join(fmt.Sprintf("validator-%d", i), types.Address{})
	}

	fmt.Fprintf(w, "BlockPilot node simulation: %d proposers, %d validators, %d threads, fork-prob %.2f\n\n",
		*proposers, *validators, *threads, *forkProb)

	totalBlocks := 0
	for r := 0; r < *rounds; r++ {
		roundTxs := gen.NextBlockTxs()
		winners := engine.ProposersForRound(uint64(r))
		fmt.Fprintf(w, "round %d (height %d): %d proposer(s) elected\n", r+1, r+1, len(winners))

		// Every elected proposer packs on its round-start head (competing
		// proposals at one height are the point of a fork); broadcasts only
		// happen after all packing so no proposer races ahead.
		var packed []*types.Block
		for _, id := range winners {
			p := byID[id]
			p.Pool.AddAll(roundTxs)
			start := time.Now()
			res, err := p.Propose()
			if err != nil {
				return fmt.Errorf("propose: %w", err)
			}
			fmt.Fprintf(w, "  %-11s packed  %s: %d txs, %d gas, %d aborts, in %v\n",
				p.ep.Name(), short(res.Block.Hash()), res.Committed, res.GasUsed, res.Aborts,
				time.Since(start).Round(time.Millisecond))
			packed = append(packed, res.Block)
		}
		for i, id := range winners {
			byID[id].ep.Broadcast(packed[i])
		}
		totalBlocks += len(packed)

		// Lockstep: every other node reports one outcome per block.
		for i := len(packed) * (len(members) - 1); i > 0; i-- {
			fmt.Fprintln(w, <-outcomes)
		}
		// "Committed" means durable: on disk, the round ends with one fsync
		// of the node store every node shares.
		if db := genesis.Database(); db != nil {
			if err := db.Store().Sync(); err != nil {
				return fmt.Errorf("round %d: sync: %w", r+1, err)
			}
		}
		head := members[0].Chain.Head()
		fmt.Fprintf(w, "  head: %s (height %d, %d block(s) stored at this height)\n\n",
			short(head.Hash()), head.Number(), len(members[0].Chain.BlocksAt(head.Number())))
	}

	// Shut down.
	fabric.Close()
	for _, m := range members {
		m.Close()
	}
	wg.Wait()

	fmt.Fprintf(w, "done: %d rounds, %d blocks proposed; every node converged on height %d\n",
		*rounds, totalBlocks, members[0].Chain.Height())

	if *telemetryAddr != "" {
		s := telemetry.TakeSnapshot()
		fmt.Fprintf(w, "telemetry: %.0f commits, %.0f aborts, %.0f reserve conflicts, %.0f blocks validated, %.0f rejected\n",
			s.Counter("blockpilot_proposer_commits_total"),
			s.Counter("blockpilot_proposer_aborts_total"),
			s.Counter("blockpilot_proposer_reserve_conflicts_total"),
			s.Counter("blockpilot_validator_blocks_total"),
			s.Counter("blockpilot_validator_rejects_total"))
	}
	if tr := trace.Active(); tr != nil {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "trace recorder: %d events recorded\n", tr.Total())
		fmt.Fprint(w, trace.RenderWindowView(tr.Window(0, "")))
		fmt.Fprint(w, tr.Attribution(10).Render())
		if *traceOut != "" {
			if err := tr.WriteTraceFile(*traceOut); err != nil {
				return fmt.Errorf("trace-out: %w", err)
			}
			fmt.Fprintf(w, "trace recorder: wrote %s (open at https://ui.perfetto.dev)\n", *traceOut)
		}
	}
	if rec := health.Active(); rec != nil {
		incidents, dropped := rec.Incidents()
		fmt.Fprintf(w, "health recorder: %d samples, %d incident(s)\n", len(rec.Series()), len(incidents))
		for _, inc := range incidents {
			fmt.Fprintf(w, "  incident #%d %s: %s → %s\n", inc.Seq, inc.Rule, inc.Detail, inc.BundleDir)
		}
		if dropped > 0 {
			fmt.Fprintf(w, "  (%d incident(s) dropped past the cap)\n", dropped)
		}
		health.Disable() // final poll + JSONL flush
		if healthFile != nil {
			healthFile.Close()
		}
	}
	for _, m := range members {
		if m.Chain.Height() != members[0].Chain.Height() {
			return fmt.Errorf("node %s diverged: height %d", m.ep.Name(), m.Chain.Height())
		}
	}
	return nil
}

// describe renders one pipeline outcome of the named node, persisting
// validator-0's accepted blocks to store when one is open.
func describe(name string, out pipeline.Outcome, store *blockdb.Store) string {
	if out.Err != nil {
		return fmt.Sprintf("  %s REJECTED block %s: %v", name, short(out.Block.Hash()), out.Err)
	}
	if store != nil && name == "validator-0" {
		if err := store.Put(out.Block); err != nil {
			return fmt.Sprintf("  %s persist error: %v", name, err)
		}
	}
	st := out.Result.Stats()
	return fmt.Sprintf("  %-11s validated %s (height %d) in %v — %d subgraphs, largest %.0f%%",
		name, short(out.Block.Hash()), out.Block.Number(), out.Elapsed.Round(time.Millisecond),
		st.ComponentCount, st.LargestRatio*100)
}

func short(h types.Hash) string { return h.String()[:10] }
