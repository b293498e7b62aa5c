package sim

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/blockdb"
	"blockpilot/internal/chain"
	"blockpilot/internal/health"
	"blockpilot/internal/network"
	"blockpilot/internal/node"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/state"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

// proposerCoinbase tags canonical blocks; fork siblings flip the last byte.
var proposerCoinbase = types.HexToAddress("0x00000000000000000000000000000000000000aa")

// outcomeRec is one pipeline outcome in arrival order.
type outcomeRec struct {
	block  *types.Block
	err    error
	root   types.Hash // committed post-state root (zero when rejected)
	reused int        // transactions taken from a sibling instead of executed
}

// incarnation is the outcome stream of one validator lifetime (between
// crash-restarts).
type incarnation struct {
	outcomes []outcomeRec
}

// valNode is one validator: a network endpoint, a durable block log, a
// worker pool, and a node that is discarded and replayed on crash-restart.
type valNode struct {
	name   string
	ep     *network.Node
	wpool  *pipeline.WorkerPool
	db     *blockdb.Store
	dbPath string
	tracer *trace.Collector // the run's private block-trace collector

	node *node.Node
	done chan struct{}

	// baseWrap is the scenario's task wrapper (StallEvery perturbation);
	// the health stall injection composes its gate around it.
	baseWrap func(func()) func()
	// submitted counts pipe.Submit calls (via submit) so quiesce can tell
	// when the outcome consumer caught up with every produced outcome.
	submitted atomic.Int64

	mu   sync.Mutex
	incs []*incarnation
}

// start opens a fresh incarnation: a new node from genesis over the
// validator's worker pool, and a consumer goroutine that records outcomes
// and persists accepted blocks.
func (v *valNode) start(genesis *state.Snapshot, params chain.Params, threads int) {
	v.node = node.New(node.Config{
		Name: v.name, Genesis: genesis, Params: params, Threads: threads,
		Workers: v.wpool, Tracer: v.tracer,
	})
	inc := &incarnation{}
	v.mu.Lock()
	v.incs = append(v.incs, inc)
	v.mu.Unlock()
	done := make(chan struct{})
	v.done = done
	pipe, db := v.node.Pipe, v.db
	go func() {
		defer close(done)
		for out := range pipe.Results() {
			rec := outcomeRec{block: out.Block, err: out.Err}
			if out.Err == nil {
				if out.Result != nil {
					rec.root = out.Result.State.Root()
					rec.reused = out.Result.Reused
				}
				_ = db.Put(out.Block) // durability: accepted blocks only
			}
			v.mu.Lock()
			inc.outcomes = append(inc.outcomes, rec)
			v.mu.Unlock()
		}
	}()
}

// stop closes the current incarnation's node and waits for its outcome
// stream to drain (parked blocks are abandoned with ErrParentUnavailable).
func (v *valNode) stop() {
	v.node.Close()
	<-v.done
}

// crashRestart models a node crash: the in-memory node is lost; the blockdb
// log survives and is replayed (ascending heights) into a fresh incarnation —
// re-validating every persisted block from genesis.
func (v *valNode) crashRestart(genesis *state.Snapshot, params chain.Params, threads int) error {
	v.stop()
	if err := v.db.Close(); err != nil {
		return fmt.Errorf("sim: %s blockdb close: %w", v.name, err)
	}
	db, err := blockdb.Open(v.dbPath) // exercises the rebuild/torn-tail scan
	if err != nil {
		return fmt.Errorf("sim: %s blockdb reopen: %w", v.name, err)
	}
	v.db = db
	v.start(genesis, params, threads)
	for h := uint64(1); h <= db.MaxHeight(); h++ {
		for _, hash := range db.HashesAt(h) {
			b, err := db.Get(hash)
			if err != nil {
				return fmt.Errorf("sim: %s replay %d: %w", v.name, h, err)
			}
			v.submit(b)
		}
	}
	v.node.Pipe.Wait()
	return nil
}

// outcomesFor returns every outcome (across incarnations) for a block
// pointer. Caller must not hold v.mu.
func (v *valNode) outcomesFor(b *types.Block) []outcomeRec {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []outcomeRec
	for _, inc := range v.incs {
		for _, rec := range inc.outcomes {
			if rec.block == b {
				out = append(out, rec)
			}
		}
	}
	return out
}

// runner holds one simulation's moving parts.
type runner struct {
	cfg    Config
	params chain.Params
	rng    *rand.Rand // sim-side choices (tamper target); independent of workload/fault streams
	gen    *workload.Generator
	prop   *node.Node // the proposer; its chain holds every genuine block + post-state
	net    *network.Network
	vals   []*valNode
	tracer *trace.Collector // private per-run collector (runs execute concurrently in tests)

	canonical []*types.Block                 // index h-1 = canonical block at height h
	genuine   map[types.Hash]*types.Block    // every honest block ever broadcast
	parents   map[types.Hash]*state.Snapshot // genuine hash → parent state at seal time (outlives the chain's window)
	heights   map[types.Hash]uint64          // genuine hash → height
	tampers   []*tamperedInstance            // creation order
	byPointer map[*types.Block]*tamperedInstance

	health    *health.Recorder     // deterministic v0 recorder (cfg.Health)
	stallGate chan struct{}        // open while the stall injection freezes v0
	adaptive  *adaptive.Controller // run-scoped contention controller (cfg.Adaptive)

	txGenerated int
	txCommitted int
	txDropped   int
}

// Run executes one simulation and checks every oracle. The returned Report
// is non-nil whenever the cluster itself ran to completion; infrastructure
// errors (I/O, invalid config) return err instead.
func Run(cfg Config) (*Report, error) {
	cfg.Normalize()
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "blockpilot-sim-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	wcfg := workload.Default()
	wcfg.NumAccounts = cfg.Accounts
	wcfg.TxPerBlock = cfg.TxPerBlock
	wcfg.NumTokens = 6
	wcfg.NumPairs = 3
	wcfg.NumMixers = 2
	wcfg.SpinMin, wcfg.SpinMax = 50, 250
	wcfg.Source = rand.NewSource(cfg.Seed)

	params := chain.DefaultParams()
	if cfg.GasLimit > 0 {
		params.GasLimit = cfg.GasLimit
	}

	r := &runner{
		cfg:       cfg,
		params:    params,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed51)),
		gen:       workload.New(wcfg),
		net:       network.New(0),
		genuine:   make(map[types.Hash]*types.Block),
		parents:   make(map[types.Hash]*state.Snapshot),
		heights:   make(map[types.Hash]uint64),
		byPointer: make(map[*types.Block]*tamperedInstance),
	}
	if cfg.Adaptive {
		r.adaptive = adaptive.New(adaptive.Config{})
	}
	// On disk, one persistent node store backs the whole cluster: the
	// proposer and every validator incarnation commit through it, so
	// crash-replay re-validation also runs disk-backed.
	genesis, closeGenesis, err := node.OpenGenesis(r.gen, cfg.StateBackend, dir)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	defer closeGenesis()

	// Every run gets a private collector — the scenario matrix runs
	// simulations concurrently, so the process-global collector stays out
	// of the picture. Capacity is sized far above the worst-case span count
	// (heights x validators x ~8 spans, plus forks and replays) so the
	// tracing oracle and digest never observe ring eviction.
	r.tracer = trace.NewCollector(32768)
	r.net.SetTracer(r.tracer)
	r.prop = node.New(node.Config{
		Name: "proposer", Genesis: genesis, Params: params, Threads: cfg.ProposerThreads,
		Coinbase: proposerCoinbase, Engine: cfg.Engine, Adaptive: r.adaptive, Tracer: r.tracer,
	})
	defer r.prop.Close()

	r.net.SeedFaults(cfg.Seed)
	r.net.SetDefaultFaults(network.LinkFaults{Drop: cfg.Drop, Duplicate: cfg.Duplicate, Reorder: cfg.Reorder})
	pnode := r.net.Join("proposer", 64)

	for i := 0; i < cfg.Validators; i++ {
		name := fmt.Sprintf("v%d", i)
		v := &valNode{
			name:   name,
			ep:     r.net.Join(name, 4096),
			wpool:  pipeline.NewWorkerPool(cfg.ValidatorThreads),
			dbPath: filepath.Join(dir, name+".blocks"),
			tracer: r.tracer,
		}
		if cfg.StallEvery > 0 {
			every := cfg.StallEvery
			var n int64
			var mu sync.Mutex
			v.baseWrap = func(f func()) func() {
				return func() {
					mu.Lock()
					n++
					stall := n%int64(every) == 0
					mu.Unlock()
					if stall {
						time.Sleep(500 * time.Microsecond)
					}
					f()
				}
			}
			v.wpool.SetTaskWrapper(v.baseWrap)
		}
		db, err := blockdb.Open(v.dbPath)
		if err != nil {
			return nil, err
		}
		v.db = db
		v.start(genesis, params, cfg.ValidatorThreads)
		r.vals = append(r.vals, v)
	}

	if cfg.Health {
		if err := r.setupHealth(dir); err != nil {
			for _, v := range r.vals {
				v.stop()
				v.wpool.Close()
				v.db.Close()
			}
			r.net.Close()
			return nil, err
		}
	}

	if err := r.drive(pnode, genesis); err != nil {
		// Tear down what we can before surfacing the error.
		for _, v := range r.vals {
			v.stop()
			v.wpool.Close()
			v.db.Close()
		}
		r.net.Close()
		return nil, err
	}

	if r.health != nil {
		r.health.Stop() // records the final (idle) sample
	}
	rep := r.report()
	for _, v := range r.vals {
		v.wpool.Close()
		if err := v.db.Close(); err != nil {
			return nil, err
		}
	}
	if cfg.MutationCheck {
		rep.Mutations = SelfCheck(cfg)
	}
	return rep, nil
}

// drive runs the proposer loop, broadcast/fault schedule, and the
// end-of-run convergence passes, leaving every validator stopped.
func (r *runner) drive(pnode *network.Node, genesis *state.Snapshot) error {
	cfg := r.cfg
	var lastFork *types.Block // first sibling of the previous burst (DeepForks)
	tamperN := 0
	partitioned := false

	for h := 1; h <= cfg.Heights; h++ {
		if cfg.PartitionAt > 0 && h == cfg.PartitionAt {
			isolated := make([]string, 0, len(r.vals)-1)
			for _, v := range r.vals[1:] {
				isolated = append(isolated, v.name)
			}
			if len(isolated) > 0 {
				r.net.SetPartitions([]string{"proposer", r.vals[0].name}, isolated)
				partitioned = true
			}
		}
		if cfg.HealAt > 0 && h == cfg.HealAt {
			r.net.Heal()
			partitioned = false
		}

		// Canonical proposal on the proposer's head: the canonical block is
		// inserted before this height's fork blocks, so it stays the head.
		parent := r.prop.Chain.Head()
		txs := r.gen.NextBlockTxs()
		r.txGenerated += len(txs)
		r.prop.Pool.AddAll(txs)
		res, err := r.prop.Propose()
		if err != nil {
			return fmt.Errorf("sim: propose height %d: %w", h, err)
		}
		r.txCommitted += res.Committed
		r.txDropped += res.Dropped
		blk := res.Block
		r.canonical = append(r.canonical, blk)
		r.genuine[blk.Hash()] = blk
		r.parents[blk.Hash()] = r.prop.Chain.StateOf(parent.Hash())
		r.heights[blk.Hash()] = uint64(h)
		toSend := []*types.Block{blk}

		// Deep fork: extend the previous burst's first sibling with this
		// height's canonical transactions (valid there: sibling post-state
		// has the same nonces as the canonical parent).
		if cfg.DeepForks && lastFork != nil {
			child, err := r.serialBlock(lastFork, blk.Txs, uint64(h), 0x01)
			if err != nil {
				return fmt.Errorf("sim: fork child height %d: %w", h, err)
			}
			toSend = append(toSend, child)
			lastFork = nil
		}

		// Fork burst: siblings share the canonical parent and transactions
		// but a distinct coinbase, so they carry distinct hashes and roots.
		if cfg.ForkEvery > 0 && h%cfg.ForkEvery == 0 {
			for i := 0; i < cfg.ForkWidth; i++ {
				sib, err := r.serialBlock(parent, blk.Txs, uint64(h), byte(0x10+i))
				if err != nil {
					return fmt.Errorf("sim: fork sibling height %d: %w", h, err)
				}
				toSend = append(toSend, sib)
				if cfg.DeepForks && i == 0 {
					lastFork = sib
				}
			}
		}

		// Tampered copy: corrupt one of this height's genuine blocks,
		// cycling deterministically through the tamper kinds.
		if cfg.TamperEvery > 0 && h%cfg.TamperEvery == 0 {
			target := toSend[r.rng.Intn(len(toSend))]
			ti, err := makeTamper(target, tamperCycle[tamperN%len(tamperCycle)])
			if err != nil {
				return err
			}
			tamperN++
			r.tampers = append(r.tampers, ti)
			r.byPointer[ti.instance] = ti
			toSend = append(toSend, ti.instance)
		}

		// Serialized broadcasts: with one publishing goroutine the fault
		// PRNG consumption — hence the whole fault pattern — is a pure
		// function of (seed, send sequence).
		for _, b := range toSend {
			pnode.Broadcast(b)
		}

		// Stall injection: freeze v0's worker pool before its inbox drains,
		// so every validation task this height submits parks on the gate.
		if r.health != nil && cfg.StallProbeAt == h {
			r.gateStall()
		}

		// Deliver: latency-0 sends are synchronous, so each validator's
		// inbox already holds everything the faults let through (reorder
		// holdbacks surface on a later height's traffic).
		for _, v := range r.vals {
			r.drainInbox(v)
		}

		if r.health != nil {
			if cfg.StallProbeAt == h {
				// Poll through the frozen window (work pending, zero
				// progress), then release the gate.
				r.stallProbePolls()
				r.ungateStall()
			}
			// One quiesced sample per height: v0 drained, consumer caught up.
			r.healthPoll()
		}

		if cfg.CrashAt > 0 && h == cfg.CrashAt {
			v := r.vals[0]
			if err := v.crashRestart(genesis, r.params, cfg.ValidatorThreads); err != nil {
				return err
			}
		}

		// The validators keep chain.StateWindow heights of state: sync them
		// every half window, while all they lack is still in it.
		if h%(chain.StateWindow/2) == 0 && !partitioned {
			for _, v := range r.vals {
				v.node.Pipe.Wait()
			}
			r.antiEntropy()
		}
	}

	// End of run: heal, flush holdbacks and in-flight deliveries, drain.
	r.net.Heal()
	r.net.Flush()
	for _, v := range r.vals {
		r.drainInbox(v)
		v.node.Pipe.Wait()
	}
	r.antiEntropy()

	for _, v := range r.vals {
		v.stop()
	}
	r.net.Close()
	return nil
}

// antiEntropy syncs every quiesced validator with what the faults cost it.
func (r *runner) antiEntropy() {
	// Anti-entropy 1: the proposer syncs every validator with the full
	// canonical spine (models block fetch / snap sync after faults).
	for pass := 0; pass < r.cfg.Heights+2; pass++ {
		resent := false
		for _, v := range r.vals {
			for _, blk := range r.canonical {
				if v.node.Chain.Block(blk.Hash()) == nil {
					v.submit(blk)
					resent = true
				}
			}
			v.node.Pipe.Wait()
		}
		if !resent {
			break
		}
	}

	// Anti-entropy 2: tampered instances that were only ever abandoned
	// (parent missing at the time) get one more delivery now that parents
	// are in, so every delivered corruption ends with a classified verdict.
	for _, v := range r.vals {
		for _, ti := range r.tampers {
			if !ti.deliveredTo[v.name] || v.node.Chain.StateOf(ti.instance.Header.ParentHash) == nil {
				continue
			}
			if !classified(v.outcomesFor(ti.instance), ti) {
				v.submit(ti.instance)
			}
		}
		v.node.Pipe.Wait()
	}
}

// classified reports whether recs contains a rejection of ti's expected class.
func classified(recs []outcomeRec, ti *tamperedInstance) bool {
	for _, rec := range recs {
		if rec.err != nil && matchesClass(rec.err, ti.class) {
			return true
		}
	}
	return false
}

// drainInbox empties v's inbox, submitting every received block to its
// pipeline and noting which tampered copies (by pointer identity) it got.
func (r *runner) drainInbox(v *valNode) {
	for {
		select {
		case msg, ok := <-v.ep.Inbox():
			if !ok {
				return
			}
			if ti, tampered := r.byPointer[msg.Block]; tampered {
				ti.deliveredTo[v.name] = true
			}
			v.submit(msg.Block)
		default:
			return
		}
	}
}

// serialBlock executes txs serially on parent and seals a block whose
// coinbase's last byte is tag — the reference (Geth-baseline) way to build
// fork blocks, and byte-deterministic for the digest. The block joins the
// proposer's chain beside the canonical one.
func (r *runner) serialBlock(parent *types.Block, txs []*types.Transaction, time uint64, tag byte) (*types.Block, error) {
	cb := proposerCoinbase
	cb[19] = tag
	header := &types.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number() + 1,
		Coinbase:   cb,
		GasLimit:   r.params.GasLimit,
		Time:       time,
	}
	res, err := chain.ExecuteSerial(r.prop.Chain.StateOf(parent.Hash()), header, txs, r.params)
	if err != nil {
		return nil, err
	}
	blk := chain.SealBlock(&parent.Header, cb, time, txs, res, r.params)
	if err := r.prop.Chain.Insert(blk, res.State); err != nil {
		return nil, err
	}
	r.genuine[blk.Hash()] = blk
	r.parents[blk.Hash()] = r.prop.Chain.StateOf(parent.Hash())
	r.heights[blk.Hash()] = blk.Number()
	return blk, nil
}

func lessHash(a, b types.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
