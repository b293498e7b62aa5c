package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/flight"
	"blockpilot/internal/health"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// ProposerConfig configures the parallel proposer engines.
type ProposerConfig struct {
	Threads    int
	Coinbase   types.Address
	Time       uint64
	MaxRetries int // aborts allowed per transaction before it is dropped
	// Engine selects the parallel execution backend: EngineOCCWSI (the
	// default, also selected by "") or EngineMVSTM, the Block-STM-style
	// multi-version engine in internal/mv (-engine flag, DESIGN.md §5.7).
	Engine string
	// MVFaultStaleReads breaks the MV-STM engine on purpose — every read
	// resolves from the parent snapshot and validation passes vacuously —
	// for the simulator's mutation self-check (docs/TESTING.md): the
	// serializability oracle must reject the resulting blocks. Never set
	// outside that check.
	MVFaultStaleReads bool
	// Node names this proposer in block-trace spans (default "proposer").
	Node string
	// Tracer injects a block-trace collector; nil falls back to the
	// process-global one (trace.Active).
	Tracer *trace.Collector
	// Adaptive, when set, turns on contention-adaptive scheduling (-adaptive
	// flag, ISSUE 9): the controller's hot set routes transactions into the
	// serial lane, qualifies pure credits for commutative merge, and its
	// demotion policy drives the pool's abort-aware ordering. One controller
	// persists across blocks — its decaying window is the whole point. Nil
	// (the default) runs both engines stock.
	Adaptive *adaptive.Controller
}

// CoarsenAccessSet maps every key of an access set to its account-level key
// (the reserve-table granularity ablation).
func CoarsenAccessSet(a *types.AccessSet) *types.AccessSet {
	c := types.NewAccessSet()
	for k, v := range a.Reads {
		c.NoteRead(types.AccountKey(k.Addr), v)
	}
	for k := range a.Writes {
		c.NoteWrite(types.AccountKey(k.Addr))
	}
	return c
}

// DefaultMaxRetries bounds livelock from pathologically conflicting txs.
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
	Fees     uint256.Int
	GasUsed  uint64

	// Stats for the evaluation harness.
	Committed    int // transactions packed
	Aborts       int // WSI conflict aborts (re-queued and retried)
	Dropped      int // transactions abandoned (invalid or retry cap)
	DroppedRetry int // subset of Dropped abandoned for retry-budget exhaustion
}

// committedTx is one packed transaction awaiting block assembly.
type committedTx struct {
	version types.Version
	tx      *types.Transaction
	receipt *types.Receipt
	profile *types.TxProfile
}

// Propose packs a new block from the pending pool with the configured
// parallel engine (cfg.Engine): OCC-WSI (default) or MV-STM. Both funnel
// into the same ProposeResult and seal path — block profile, header
// commitments, flight events and trace spans are engine-agnostic.
func Propose(parent *state.Snapshot, parentHeader *types.Header, pool *mempool.Pool,
	cfg ProposerConfig, params chain.Params) (*ProposeResult, error) {
	switch cfg.Engine {
	case "", EngineOCCWSI:
		return proposeOCC(parent, parentHeader, pool, cfg, params)
	case EngineMVSTM:
		return proposeMV(parent, parentHeader, pool, cfg, params)
	default:
		return nil, fmt.Errorf("core: unknown proposer engine %q (want %q or %q)", cfg.Engine, EngineOCCWSI, EngineMVSTM)
	}
}

// proposeOCC packs a block using OCC-WSI parallel execution (paper
// Algorithm 1). Worker threads claim transactions by gas price in small
// batches, execute them against versioned snapshots, and commit through the
// (striped) reserve-table validation; conflicted transactions return to the
// pool. The block's transaction order is the commit (serialization) order,
// and the block profile carries each transaction's read/write sets.
//
// Idle workers block on a condition variable instead of spinning: the pool
// signals whenever a transaction becomes executable (Add, Requeue, or a
// nonce promotion), and the worker that retires the last in-flight
// transaction broadcasts so everyone observes the drained pool and exits.
func proposeOCC(parent *state.Snapshot, parentHeader *types.Header, pool *mempool.Pool,
	cfg ProposerConfig, params chain.Params) (*ProposeResult, error) {

	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	header := &types.Header{
		ParentHash: parentHeader.Hash(),
		Number:     parentHeader.Number + 1,
		Coinbase:   cfg.Coinbase,
		GasLimit:   params.GasLimit,
		Time:       cfg.Time,
	}
	span := telemetry.StartSpan("proposer.propose", header.Number, telemetry.ProposerBlockSeconds)
	defer span.End()
	tr := trace.Resolve(cfg.Tracer)
	node := cfg.Node
	if node == "" {
		node = "proposer"
	}
	var sealStart, scStart, scEnd time.Time
	if tr != nil {
		sealStart = time.Now()
	}
	bc := chain.BlockContextFor(header, params.ChainID)
	mv := NewMVState(parent)

	// Contention-adaptive scheduling: roll the controller's window forward
	// and configure the pool's abort-aware ordering for this block. With no
	// controller every adaptive branch below is dead and the engine runs
	// stock — SetAbortAware(false) also restores a pool a previous adaptive
	// run left demoting.
	ctrl := cfg.Adaptive
	pool.SetAbortAware(ctrl != nil && ctrl.DemotionEnabled())
	var credits *adaptive.CreditPool
	if ctrl != nil {
		ctrl.BlockStart()
		if ctrl.DemotionEnabled() {
			pool.AgeAborts(ctrl.Config().Decay)
		}
		if ctrl.MergeEnabled() {
			credits = adaptive.NewCreditPool()
		}
	}

	var (
		mu           sync.Mutex // guards committed + fees only
		committed    []committedTx
		gasUsed      atomic.Uint64
		fees         uint256.Int
		aborts       atomic.Int64
		dropped      atomic.Int64
		droppedRetry atomic.Int64
		gasFull      atomic.Bool
		inFlight     atomic.Int64
		retries      sync.Map // tx hash → *atomic.Int64
	)
	height := header.Number

	// Idle-worker wakeup: waiters hold idleMu while checking the predicate
	// (pool.Executable, inFlight, gasFull); every signaller acquires idleMu
	// around the broadcast, so a predicate change can never slip between a
	// waiter's check and its Wait (no lost wakeups, no busy spin).
	var idleMu sync.Mutex
	idleCond := sync.NewCond(&idleMu)
	wake := func() {
		idleMu.Lock()
		idleCond.Broadcast()
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

	// processOne executes and tries to commit a single claimed transaction,
	// reporting whether it committed. worker is the flight-recorder lane id
	// of the calling goroutine (the serial lane uses cfg.Threads).
	processOne := func(worker int, tx *types.Transaction) bool {
		flight.ExecStart(worker, tx, height)
		defer flight.ExecEnd(worker, tx, height)
		v := mv.Version()
		telemetry.ProposerSnapshotBuilds.Inc()
		view := mv.View(v)
		overlay := state.NewOverlay(view, v)
		receipt, fee, err := chain.ApplyTransaction(overlay, tx, bc)
		if err != nil {
			switch {
			case errors.Is(err, chain.ErrNonceTooHigh):
				// An earlier-nonce tx aborted after this one was queued
				// behind it: retry once the chain settles.
				requeueOrDrop(worker, pool, tx, &retries, cfg.MaxRetries, height, &dropped, &droppedRetry)
			default:
				// Nonce too low / unfunded: permanently invalid here.
				pool.Done(tx)
				dropped.Add(1)
				telemetry.ProposerDrops.Inc()
				flight.Drop(worker, tx, height, false)
			}
			return false
		}

		// Gas reservation: claim the receipt's gas with a CAS loop so the
		// commit itself (Alg. 1 DetectConflict) can run outside any global
		// lock — commits on disjoint stripe sets proceed fully in parallel.
		// An aborted commit releases its reservation.
		for {
			cur := gasUsed.Load()
			if cur+receipt.GasUsed > params.GasLimit {
				gasFull.Store(true)
				pool.Requeue(tx) // leave it for the next block
				wake()           // unblock idle workers so they observe gasFull
				return false
			}
			if gasUsed.CompareAndSwap(cur, cur+receipt.GasUsed) {
				break
			}
		}
		commitView := overlay.Access()
		cs := overlay.ChangeSet()
		merged := credits != nil && mergeableCredit(ctrl, view, tx, cs)
		if merged {
			// The hot recipient leaves the transaction's conflict footprint:
			// its credit rides the commutative pool instead of the reserve
			// table, so N transfers to one hot account stop aborting each
			// other. The sealed profile below keeps the FULL access set, so
			// the validator still serializes merged txs within components.
			key := types.AccountKey(tx.To)
			delete(commitView.Reads, key)
			delete(commitView.Writes, key)
			delete(cs.Accounts, tx.To)
		}
		version, conflict, ok := mv.TryCommitEx(commitView, cs)
		if ok {
			if merged {
				credits.Add(tx.To, &tx.Value)
				ctrl.NoteMerge()
			}
			mu.Lock()
			fees.Add(&fees, fee)
			committed = append(committed, committedTx{
				version: version,
				tx:      tx,
				receipt: receipt,
				profile: types.ProfileFromAccessSet(overlay.Access(), receipt.GasUsed),
			})
			mu.Unlock()
			pool.Done(tx)
			telemetry.ProposerCommits.Inc()
			health.Heartbeat(health.CompProposer)
			flight.Commit(worker, tx, version, height)
			return true
		}
		gasUsed.Add(^(receipt.GasUsed - 1)) // release the reservation
		aborts.Add(1)
		telemetry.ProposerAborts.Inc()
		flight.Abort(worker, tx, conflict.Key, conflict.Winner, conflict.Stripe, height)
		if ctrl != nil {
			ctrl.NoteAbort(tx.From, conflict.Key, conflict.Stripe)
		}
		requeueOrDrop(worker, pool, tx, &retries, cfg.MaxRetries, height, &dropped, &droppedRetry)
		return false
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
		lane        adaptive.TxQueue // guarded by idleMu
		laneClosed  bool             // guarded by idleMu
		laneWg      sync.WaitGroup
		laneCommits atomic.Int64
	)
	laneID := cfg.Threads // flight-recorder lane beyond the worker ids
	runLane := func() {
		defer laneWg.Done()
		for {
			idleMu.Lock()
			for lane.Len() == 0 && !laneClosed {
				idleCond.Wait()
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
			if processOne(laneID, tx) {
				laneCommits.Add(1)
			}
			ctrl.NoteLaneTx()
			settle(1)
		}
	}
	if ctrl != nil {
		laneWg.Add(1)
		go runLane()
	}

	worker := func(id int) {
		for !gasFull.Load() {
			txs := pool.PopBatch(DefaultPopBatch)
			if len(txs) == 0 {
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
					idleCond.Wait()
				}
				idleMu.Unlock()
				continue
			}
			inFlight.Add(int64(len(txs)))
			if flight.Enabled() {
				for _, tx := range txs {
					flight.Pop(id, tx, height)
				}
			}
			for i, tx := range txs {
				if gasFull.Load() {
					// Block filled mid-batch: return the unexecuted rest.
					rest := txs[i:]
					pool.RequeueBatch(rest)
					settle(int64(len(rest)))
					return
				}
				if ctrl != nil && ctrl.IsHot(tx) {
					// Divert to the serial lane; the tx stays in-flight
					// (and counted) until the lane settles it.
					idleMu.Lock()
					lane.Push(tx)
					idleCond.Broadcast()
					idleMu.Unlock()
					continue
				}
				processOne(id, tx)
				settle(1)
			}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < cfg.Threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(id)
		}(i)
	}
	wg.Wait()
	if ctrl != nil {
		idleMu.Lock()
		laneClosed = true
		idleCond.Broadcast()
		idleMu.Unlock()
		laneWg.Wait()
	}

	// Assemble the block in commit (version) order.
	sortByVersion(committed)
	txs := make([]*types.Transaction, len(committed))
	receipts := make([]*types.Receipt, len(committed))
	profile := &types.BlockProfile{Txs: make([]*types.TxProfile, len(committed))}
	var cumulative uint64
	for i, c := range committed {
		txs[i] = c.tx
		cumulative += c.receipt.GasUsed
		c.receipt.CumulativeGasUsed = cumulative
		receipts[i] = c.receipt
		profile.Txs[i] = c.profile
		flight.Seal(c.tx, c.version, i, height)
	}

	// Finalize: aggregate fee + reward credit to the coinbase, then commit.
	// Merged hot-account credits materialize first — over the accumulated
	// block state and into the total change set — so FinalizationChange sees
	// them (the coinbase itself can be hot).
	total := mv.Flatten()
	accum := state.NewMemory(parent)
	accum.ApplyChangeSet(total)
	if credits != nil {
		if ccs := credits.Materialize(accum); ccs != nil {
			accum.ApplyChangeSet(ccs)
			total.Merge(ccs)
		}
	}
	total.Merge(chain.FinalizationChange(accum, cfg.Coinbase, &fees, params))
	if tr != nil {
		scStart = time.Now()
	}
	postState, stateRoot := chain.CommitAndRoot(parent, total, params, height)
	if tr != nil {
		scEnd = time.Now()
	}

	if ctrl != nil {
		occ := 0.0
		if len(committed) > 0 {
			occ = float64(laneCommits.Load()) / float64(len(committed))
		}
		telemetry.AdaptiveLaneOccupancy.Set(occ)
	}
	telemetry.ProposerBlockTxs.Observe(uint64(len(committed)))
	header.GasUsed = gasUsed.Load()
	header.StateRoot = stateRoot
	header.TxRoot = types.ComputeTxRoot(txs)
	header.ReceiptRoot = types.ComputeReceiptRoot(receipts)
	header.LogsBloom = types.CreateBloom(receipts)

	blk := &types.Block{Header: *header, Txs: txs, Profile: profile}
	if tr != nil {
		// The block hash only exists once every header commitment is filled
		// in, so the seal span (covering the whole packing run) is recorded
		// here; ContextFor picks it up as the trace root when the block is
		// broadcast.
		bh := blk.Hash()
		tr.RecordSpan(node, trace.StageStateCommit, bh, height, scStart, scEnd)
		tr.RecordSpan(node, trace.StageSeal, bh, height, sealStart, time.Now())
	}

	return &ProposeResult{
		Block:        blk,
		Receipts:     receipts,
		State:        postState,
		Fees:         fees,
		GasUsed:      gasUsed.Load(),
		Committed:    len(committed),
		Aborts:       int(aborts.Load()),
		Dropped:      int(dropped.Load()),
		DroppedRetry: int(droppedRetry.Load()),
	}, nil
}

// requeueOrDrop retries tx unless it has exhausted its abort budget, in which
// case it is dropped for good and counted under both the general drops metric
// and the retry-budget-specific blockpilot_proposer_dropped_total.
func requeueOrDrop(worker int, pool *mempool.Pool, tx *types.Transaction, retries *sync.Map,
	maxRetries int, height uint64, dropped, droppedRetry *atomic.Int64) {
	counter, _ := retries.LoadOrStore(tx.Hash(), new(atomic.Int64))
	if counter.(*atomic.Int64).Add(1) > int64(maxRetries) {
		pool.Done(tx)
		dropped.Add(1)
		droppedRetry.Add(1)
		telemetry.ProposerDrops.Inc()
		telemetry.ProposerDroppedRetryBudget.Inc()
		flight.Drop(worker, tx, height, true)
		return
	}
	telemetry.ProposerRetries.Inc()
	flight.Requeue(worker, tx, height)
	pool.Requeue(tx)
}

// mergeableCredit reports whether tx is a pure balance credit to a hot
// account whose effect can ride the commutative credit pool (both engines):
// a plain transfer — no calldata, no create, no self-send, nonzero value —
// to a code-free recipient whose only executed change is balance += value
// with the nonce untouched. The shape is checked against the actual change
// set, not inferred from the transaction: anything the execution did beyond
// the plain credit disqualifies it. Balance addition commutes and the
// sender-side funds check only ever sees a balance ≥ the merged-out true
// value, so folding the credits and materializing the sum once at seal is
// final-state-equivalent to any serial interleaving — the same argument
// that already backs the per-block coinbase fee aggregation (DESIGN.md §4).
func mergeableCredit(ctrl *adaptive.Controller, view state.Reader, tx *types.Transaction, cs *state.ChangeSet) bool {
	if tx.CreateContract || len(tx.Data) != 0 || tx.To == tx.From || tx.Value.IsZero() {
		return false
	}
	if !ctrl.HotAccount(tx.To) {
		return false
	}
	chg := cs.Accounts[tx.To]
	if chg == nil || chg.CodeSet || len(chg.Storage) != 0 {
		return false
	}
	if len(view.Code(tx.To)) != 0 || chg.Nonce != view.Nonce(tx.To) {
		return false
	}
	want := view.Balance(tx.To)
	want.Add(&want, &tx.Value)
	return want.Eq(&chg.Balance)
}

// sortByVersion orders committed txs by their assigned serialization number.
func sortByVersion(list []committedTx) {
	// Versions are dense and unique; simple insertion-style sort via sort.Slice.
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && list[j].version < list[j-1].version; j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
}
