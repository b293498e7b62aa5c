package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
)

// ProposerConfig configures the parallel proposer engines.
type ProposerConfig struct {
	Threads  int
	Coinbase types.Address
	Time     uint64
	// Engine selects the parallel execution backend: EngineOCCWSI (the
	// default, also selected by "") or EngineMVSTM, the Block-STM-style
	// multi-version engine in internal/mv (DESIGN.md §5.7).
	Engine string
	// MVFaultStaleReads breaks the MV-STM engine on purpose — every read
	// resolves from the parent snapshot and validation passes vacuously —
	// for the simulator's mutation self-check (docs/TESTING.md): the
	// serializability oracle must reject the resulting blocks. Never set
	// outside that check.
	MVFaultStaleReads bool
	// Node names this proposer in its stage events (default "proposer").
	Node string
	// Tracer injects the recorder of the seal stage events; nil falls back
	// to the installed one (trace.Active).
	Tracer *trace.Recorder
	// Adaptive, when set, turns on contention-adaptive scheduling (ISSUE 9):
	// the controller's hot set routes transactions into the serial lane,
	// qualifies pure credits for commutative merge, and its demotion policy
	// drives the pool's abort-aware ordering. One controller persists across
	// blocks — its decaying window is the whole point. Nil (the default)
	// runs both engines stock.
	Adaptive *adaptive.Controller
	// Step, when set, schedules the OCC-WSI workers (Stepper). Nil in
	// production, where it costs one nil check per scheduling point.
	Step Stepper
}

// Stepper decides when each OCC-WSI worker runs (workers 0 to Threads-1, the
// adaptive serial lane as worker Threads): a worker waits inside Yield or
// Park until the stepper resumes it, so one that resumes one worker at a time
// runs the engine on the schedule it picks.
type Stepper interface {
	// Yield is a scheduling point: before every claim (a worker's first
	// call), store commit, extension check and requeue.
	Yield(worker int)
	// Park replaces the idle wait: called with mu held, it releases mu until
	// a Wake has made the worker runnable and the stepper resumes it. A
	// worker that returns for good calls it with a nil mu, which never waits.
	Park(worker int, mu *sync.Mutex)
	Wake() // makes every parked worker runnable
}

// condIdle is the idle half of the seam when no stepper is set: workers wait
// on a condition variable and run as the Go scheduler runs them.
type condIdle struct{ *sync.Cond }

func (condIdle) Yield(int) {}

func (c condIdle) Park(_ int, mu *sync.Mutex) {
	if mu != nil {
		c.Wait()
	}
}

func (c condIdle) Wake() { c.Broadcast() }

// DefaultMaxRetries is how many aborts a transaction is allowed before it is
// dropped: it bounds livelock from pathologically conflicting txs.
const DefaultMaxRetries = 128

// DefaultPopBatch is the mempool claim size per worker trip: large enough to
// amortize the pool's heap lock, small enough that the tail of a block still
// spreads across workers.
const DefaultPopBatch = 4

// ProposeResult is the outcome of packing one block.
type ProposeResult struct {
	Block    *types.Block
	Receipts []*types.Receipt
	State    *state.Snapshot // committed post-state
	GasUsed  uint64

	// Stats for the evaluation harness.
	Committed int // transactions packed
	Aborts    int // WSI conflict aborts (re-queued and retried)
	Dropped   int // transactions abandoned (invalid or retry cap)
}

// Proposer engine identifiers (ProposerConfig.Engine).
const (
	// EngineOCCWSI is the paper's OCC-WSI engine (proposeOCC): abort a
	// conflicted transaction outright and re-execute it from the pool.
	EngineOCCWSI = "occ-wsi"
	// EngineMVSTM is the Block-STM-style engine (proposeMV, internal/mv):
	// multi-version memory with ESTIMATE sentinels, read-set validation by
	// transaction index, and dependency suspension instead of blind
	// re-execution.
	EngineMVSTM = "mv-stm"
)

// Engines lists the selectable proposer engines (flag help, benches).
func Engines() []string { return []string{EngineOCCWSI, EngineMVSTM} }

// Propose packs a new block from the pending pool with the configured
// parallel engine (cfg.Engine): OCC-WSI (default) or MV-STM. Both run inside
// the one blockBuild harness (build.go), so the ProposeResult, block
// profile, header commitments and recorded events are
// engine-agnostic.
func Propose(parent *state.Snapshot, parentHeader *types.Header, pool *mempool.Pool,
	cfg ProposerConfig, params chain.Params) (*ProposeResult, error) {
	var engine func(*blockBuild) *ProposeResult
	switch cfg.Engine {
	case "", EngineOCCWSI:
		engine = proposeOCC
	case EngineMVSTM:
		if cfg.Step != nil {
			return nil, fmt.Errorf("core: a Stepper drives the %q engine only", EngineOCCWSI)
		}
		engine = proposeMV
	default:
		return nil, fmt.Errorf("core: unknown proposer engine %q (want %q or %q)", cfg.Engine, EngineOCCWSI, EngineMVSTM)
	}
	return engine(begin(parent, parentHeader, pool, cfg, params)), nil
}

// proposeOCC packs a block using OCC-WSI parallel execution (paper
// Algorithm 1). Worker threads claim transactions by gas price in small
// batches, execute them against versioned snapshots, and commit through the
// reserve-table validation; conflicted transactions return to the
// pool. The block's transaction order is the commit (serialization) order,
// and the block profile carries each transaction's read/write sets.
//
// Idle workers block on a condition variable instead of spinning: the pool
// signals whenever a transaction becomes executable (Add, Requeue, or a
// nonce promotion), and the worker that retires the last in-flight
// transaction broadcasts so everyone observes the drained pool and exits.
func proposeOCC(b *blockBuild) *ProposeResult {
	pool, ctrl, gasLimit, step := b.pool, b.ctrl, b.params.GasLimit, b.cfg.Step
	mv := newMVState(b.parent)
	mv.step = step

	var (
		gasUsed  atomic.Uint64
		aborts   atomic.Int64
		gasFull  atomic.Bool
		inFlight atomic.Int64
	)

	// Idle-worker wakeup: waiters hold idleMu while checking the predicate
	// (pool.Executable, inFlight, gasFull); every signaller acquires idleMu
	// around the broadcast, so a predicate change can never slip between a
	// waiter's check and its Wait (no lost wakeups, no busy spin). A stepper
	// parks and wakes the workers in place of the condition variable.
	var idleMu sync.Mutex
	idle := Stepper(condIdle{sync.NewCond(&idleMu)})
	if step != nil {
		idle = step
	}
	wake := func() {
		idleMu.Lock()
		idle.Wake()
		idleMu.Unlock()
	}
	pool.SetExecutableHook(wake)
	defer pool.SetExecutableHook(nil)

	// settle retires n in-flight transactions; the worker that drains the
	// last one wakes every idle peer so they can observe the exit condition.
	settle := func(n int64) {
		if inFlight.Add(-n) == 0 {
			wake()
		}
	}

	laneID := b.cfg.Threads // recorder lane beyond the worker ids

	// processOne executes and tries to commit a single claimed transaction on
	// the calling goroutine's view, re-armed here for this execution. Its
	// exec_end is recorded before any requeue: a requeued transaction may be
	// popped and started by another worker at once.
	processOne := func(view *mvView, tx *types.Transaction) {
		worker, overlay := view.lane, view.overlay
		trace.ExecStart(b.node, worker, tx, b.header.Number)
		telemetry.ProposerSnapshotBuilds.Inc()
		view.begin(tx)
		receipt, fee, err := chain.ApplyTransaction(overlay, tx, b.bc)
		if err != nil {
			trace.ExecEnd(b.node, worker, tx, b.header.Number)
			b.reject(worker, tx, err)
			return
		}

		// Gas reservation: claim the receipt's gas with a CAS loop so the
		// commit itself (Alg. 1 DetectConflict) can run outside any global
		// lock — commits on disjoint keys proceed fully in parallel.
		// An aborted commit releases its reservation.
		for {
			cur := gasUsed.Load()
			if cur+receipt.GasUsed > gasLimit {
				gasFull.Store(true)
				trace.ExecEnd(b.node, worker, tx, b.header.Number)
				b.yield(worker)
				pool.Requeue(tx) // leave it for the next block
				wake()           // unblock idle workers so they observe gasFull
				return
			}
			if gasUsed.CompareAndSwap(cur, cur+receipt.GasUsed) {
				break
			}
		}
		access := overlay.Access()
		cs := overlay.ChangeSet()
		var profile *types.TxProfile
		// The execution is over: what reads the state from here on gets a
		// pinned view (made only when a credit could merge at all), which
		// cannot move the snapshot under the access set just taken.
		merged := b.credits != nil && b.mergeableCredit(mv.View(overlay.Version()), tx, cs)
		if merged {
			// The hot recipient leaves the transaction's conflict footprint:
			// its credit rides the commutative pool instead of the reserve
			// table, so N transfers to one hot account stop aborting each
			// other. The sealed profile keeps the FULL access set — a
			// validator replays and compares it, and still serializes merged
			// txs within components — so it is taken before the key goes.
			profile = types.ProfileFromAccessSet(access, receipt.GasUsed)
			key := types.AccountKey(tx.To)
			delete(access.Reads, key)
			delete(access.Writes, key)
			cs.Drop(tx.To)
		}
		// Algorithm 1's DetectConflict + commit, in one step of the store: on
		// a stale read, key is the read that aborts and winner the version
		// that overwrote it.
		b.yield(worker)
		version, key, winner, ok := mv.store.Commit(access, cs)
		if ok {
			if profile == nil {
				profile = types.ProfileFromAccessSet(access, receipt.GasUsed)
			}
			b.commit(worker, committedTx{version: version, tx: tx, receipt: receipt, profile: profile},
				fee, merged, worker == laneID)
			trace.ExecEnd(b.node, worker, tx, b.header.Number)
			return
		}
		gasUsed.Add(^(receipt.GasUsed - 1)) // release the reservation
		aborts.Add(1)
		telemetry.ProposerReserveConflicts.Inc()
		telemetry.ProposerAborts.Inc()
		trace.Abort(b.node, worker, tx, key, winner, b.header.Number)
		if ctrl != nil {
			ctrl.NoteAbort(tx.From, key)
		}
		trace.ExecEnd(b.node, worker, tx, b.header.Number)
		b.requeueOrDrop(worker, tx)
	}

	// Hot-key serial lane: hot transactions detour through one dedicated
	// processor ordered by gas price, so they commit without speculative
	// aborts while cold traffic keeps every worker. The queue is guarded by
	// idleMu (lane traffic is a small slice of the block by construction);
	// lane-held transactions stay in-flight, so the workers' drained-pool
	// exit condition keeps holding, and the lane's settle wakes idle workers
	// like any other retire. laneClosed is set only after every worker has
	// exited — the lane drains on gasFull but keeps looping until then, so
	// a late hot diversion is never stranded.
	var (
		lane       adaptive.TxQueue // guarded by idleMu
		laneClosed bool             // guarded by idleMu
		laneWg     sync.WaitGroup
	)
	runLane := func() {
		defer laneWg.Done()
		defer idle.Park(laneID, nil)
		view := mv.bind(b.node, laneID, b.header.Number)
		for {
			idleMu.Lock()
			for lane.Len() == 0 && !laneClosed {
				idle.Park(laneID, &idleMu)
			}
			if lane.Len() == 0 {
				idleMu.Unlock()
				return // closed and drained
			}
			if gasFull.Load() {
				rest := lane.Drain()
				idleMu.Unlock()
				pool.RequeueBatch(rest) // leave them for the next block
				settle(int64(len(rest)))
				continue
			}
			tx := lane.Pop()
			idleMu.Unlock()
			processOne(view, tx)
			ctrl.NoteLaneTx()
			settle(1)
		}
	}
	if ctrl != nil {
		laneWg.Add(1)
		go runLane()
	}

	worker := func(id int) {
		view := mv.bind(b.node, id, b.header.Number)
		for !gasFull.Load() {
			b.yield(id)
			cold, hot := b.claim(id, DefaultPopBatch)
			if len(cold)+len(hot) == 0 {
				// Blocking wait with a drained-pool exit path: no spin when
				// inFlight > 0 but the heap is empty.
				idleMu.Lock()
				for {
					if gasFull.Load() {
						idleMu.Unlock()
						return
					}
					if pool.Executable() > 0 {
						break
					}
					if inFlight.Load() == 0 {
						idleMu.Unlock()
						wake() // make sure peers re-check and exit too
						return
					}
					idle.Park(id, &idleMu)
				}
				idleMu.Unlock()
				continue
			}
			inFlight.Add(int64(len(cold) + len(hot)))
			if len(hot) > 0 {
				// Divert to the serial lane; the txs stay in-flight (and
				// counted) until the lane settles them.
				idleMu.Lock()
				for _, tx := range hot {
					lane.Push(tx)
				}
				idle.Wake()
				idleMu.Unlock()
			}
			for i, tx := range cold {
				if gasFull.Load() {
					// Block filled mid-batch: return the unexecuted rest.
					rest := cold[i:]
					pool.RequeueBatch(rest)
					settle(int64(len(rest)))
					return
				}
				processOne(view, tx)
				settle(1)
			}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < b.cfg.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer idle.Park(id, nil)
			worker(id)
		}(i)
	}
	wg.Wait()
	if ctrl != nil {
		idleMu.Lock()
		laneClosed = true
		idle.Wake()
		idleMu.Unlock()
		laneWg.Wait()
	}

	return b.seal(mv.store.Flatten(), gasUsed.Load(), int(aborts.Load()), nil)
}
