// Package pipeline implements BlockPilot's multi-block validator workflow
// (paper §4.3, Fig. 5): a four-phase pipeline — preparation, transaction
// execution, block validation, block commitment — that processes several
// blocks concurrently.
//
// A block waits for its *parent* to commit. Blocks on the same parent —
// siblings — share one validator.Siblings record. The first to start leads:
// it executes, and publishes every result its lanes verify. Each later one,
// a follower, waits in its own goroutine until every lane of the leader has
// started, then queues its own; a follower lane takes the leader's verified
// result for every transaction the last-writer rule proves unchanged, and
// executes the rest. Siblings therefore do not run their executions side by
// side: a follower's lanes run in the leader's execution tail and commit, on
// the workers the leader frees. At most maxSiblings validations run on one
// parent at once; later siblings queue in arrival order, on the same record.
// All in-flight blocks share one worker pool, so free workers execute
// transactions regardless of which block they belong to.
package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
)

// ErrParentUnavailable fails blocks whose parent never validated.
var ErrParentUnavailable = errors.New("pipeline: parent block never validated")

// beforeValidate and afterInsert, when set (tests only), run as a block's
// validation starts, and between its insert into the chain and the send of
// its outcome.
var beforeValidate, afterInsert func(*types.Block)

// ErrParkedCap fails a block more than chain.StateWindow above head, and the
// oldest parked arrival once maxParked blocks wait. The honest partition and
// lossy simulator scenarios park at most 16 at once (seeds 1 and 42).
var ErrParkedCap = errors.New("pipeline: beyond the parked-block cap")

const maxParked = 256

// maxSiblings caps the validations that run at once on one parent; later
// siblings queue in arrival order and start as running ones finish. The
// cluster simulator's scenarios peak at 7 (seeds 1, 2, 7 and 42, both engines,
// with and without the adaptive controller, also over 80 heights).
const maxSiblings = 8

// ErrPoolClosed reports a submission to a closed worker pool.
var ErrPoolClosed = errors.New("pipeline: worker pool closed")

// WorkerPool is the shared transaction-execution pool. Lanes (per-block
// thread assignments) from every in-flight block queue here.
type WorkerPool struct {
	mu     sync.RWMutex
	closed bool
	tasks  chan func()
	wg     sync.WaitGroup
	wrap   atomic.Pointer[func(func()) func()]
}

// NewWorkerPool starts n workers.
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{tasks: make(chan func(), 4096)}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.tasks {
				f()
			}
		}()
	}
	return p
}

// Submit enqueues one lane. Submitting to a closed pool panics with
// ErrPoolClosed. Callers that may race with Close should use TrySubmit.
func (p *WorkerPool) Submit(f func()) {
	if !p.TrySubmit(f) {
		panic(ErrPoolClosed)
	}
}

// SetTaskWrapper installs w around every subsequently submitted task (nil
// removes it). The wrapper runs on the worker goroutine in place of the raw
// task; it must call the function it was given exactly once. Fault-injection
// harnesses (internal/sim) use this to stall pipeline stages mid-run without
// touching task semantics.
func (p *WorkerPool) SetTaskWrapper(w func(func()) func()) {
	if w == nil {
		p.wrap.Store(nil)
		return
	}
	p.wrap.Store(&w)
}

// TrySubmit enqueues one lane, returning false if the pool is closed. It
// may block while the queue is full (the workers drain it).
func (p *WorkerPool) TrySubmit(f func()) bool {
	if w := p.wrap.Load(); w != nil {
		f = (*w)(f)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	p.tasks <- f
	telemetry.PipelineQueueDepth.Set(int64(len(p.tasks)))
	return true
}

// Close drains and stops the workers. Further Submit calls panic with
// ErrPoolClosed; further TrySubmit calls return false.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}

// Outcome reports one block's passage through the pipeline.
type Outcome struct {
	Block   *types.Block
	Result  *validator.Result
	Err     error
	Elapsed time.Duration // submission → commitment
}

// Pipeline validates submitted blocks with cross-height dependency
// tracking: read Results for one Outcome per submitted block. The results
// channel is buffered (4096); consume it before submitting more than that.
type Pipeline struct {
	chain   *chain.Chain
	cfg     validator.Config
	params  chain.Params
	pool    *WorkerPool
	ownPool bool

	mu       sync.Mutex
	cond     *sync.Cond
	running  int                            // validations started or queued behind their siblings
	unsent   map[types.Hash]bool            // blocks in the chain whose commit outcome is not sent yet
	waiting  map[types.Hash][]*pendingBlock // parent hash → parked blocks
	parked   int                            // blocks in waiting
	failed   map[types.Hash]uint64          // hash → height of a block that failed for good (see rememberLocked)
	siblings map[types.Hash]siblingRef      // parent hash → the record its running children share

	results chan Outcome
}

// siblingRef is one parent's sibling record and the number of running or
// queued validations that hold it: the record is recycled when the last
// returns, never earlier, since a follower reads the leader's results in its
// lanes.
type siblingRef struct {
	sib    *validator.Siblings
	refs   int
	queued []*pendingBlock // past maxSiblings, in arrival order
}

type pendingBlock struct {
	block    *types.Block
	hash     types.Hash
	arrived  time.Time
	released time.Time           // when the parent's commitment unparked it (zero if never parked)
	sib      *validator.Siblings // shared with the running blocks on the same parent
	lead     bool                // this block's validation fills sib
}

// New builds a pipeline over a chain. cfg.Threads bounds each block's lane
// count, cfg.Node and cfg.Tracer name the node and recorder of its stage
// events; pool is the shared execution pool (nil = create one with
// cfg.Threads workers, owned and closed by the pipeline).
func New(c *chain.Chain, cfg validator.Config, pool *WorkerPool) *Pipeline {
	own := false
	if pool == nil {
		pool = NewWorkerPool(cfg.Threads)
		own = true
	}
	cfg.Spawn = pool.Submit
	if cfg.Node == "" {
		cfg.Node = "validator"
	}
	p := &Pipeline{
		chain:    c,
		cfg:      cfg,
		params:   c.Params(),
		pool:     pool,
		ownPool:  own,
		unsent:   make(map[types.Hash]bool),
		waiting:  make(map[types.Hash][]*pendingBlock),
		failed:   make(map[types.Hash]uint64),
		siblings: make(map[types.Hash]siblingRef),
		results:  make(chan Outcome, 4096),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Results delivers one Outcome per submitted block.
func (p *Pipeline) Results() <-chan Outcome { return p.results }

// Submit hands a block to the pipeline. A block whose body its header does
// not commit to (chain.CheckBody) gets its outcome at once and touches
// nothing else: the right body may still arrive under the same hash. A
// block that can never validate (see unvalidatable) gets its outcome at
// once too, and so does every block parked behind it or arriving later on
// it (ErrParentUnavailable). Blocks may arrive in any order; a block waits
// until its parent has been validated and its outcome sent, and a block on
// the same parent as one already running follows it (see the package
// comment). With maxParked blocks waiting, the oldest arrival fails with
// ErrParkedCap, and every block parked behind it.
func (p *Pipeline) Submit(block *types.Block) {
	// One header encoding + Keccak per block, taken outside p.mu: the hash
	// keys the block's spans and, under the lock, its waiting children.
	pb := &pendingBlock{block: block, arrived: time.Now(), hash: block.Hash()}
	if err := chain.CheckBody(block); err != nil {
		p.send(pb, Outcome{Block: block, Err: err, Elapsed: time.Since(pb.arrived)})
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.unvalidatable(block); err != nil {
		p.rejectLocked(pb, err)
		return
	}
	delete(p.failed, pb.hash) // submitted again: children may wait for it
	parent := block.Header.ParentHash
	if p.chain.StateOf(parent) == nil || p.unsent[parent] {
		if _, ok := p.failed[parent]; ok {
			p.rejectLocked(pb, ErrParentUnavailable)
			return
		}
		if p.parked == maxParked {
			p.failOldestLocked()
		}
		p.waiting[parent] = append(p.waiting[parent], pb)
		p.parked++
		telemetry.PipelineWaiting.Add(1)
		return
	}
	p.startLocked(pb)
}

// rejectLocked fails pb for a reason its header fixes, remembers that, and
// fails every block parked behind it. Caller holds p.mu.
func (p *Pipeline) rejectLocked(pb *pendingBlock, err error) {
	p.send(pb, Outcome{Block: pb.block, Err: err, Elapsed: time.Since(pb.arrived)})
	p.rememberLocked(pb.hash, pb.block.Number())
	_ = p.failSubtreeLocked(pb.hash, err)
}

// rememberLocked records a block that failed for a reason its header fixes
// (gas limit, the window bound, validation, insert, or such a parent), so
// that a child submitted later fails at once instead of parking. A body
// check failure is not one (the right body may still come under the hash),
// nor a parked-cap eviction or an abandon. The record forgets a block whose
// child is below the state window, and past maxParked entries its lowest.
// Caller holds p.mu.
func (p *Pipeline) rememberLocked(hash types.Hash, height uint64) {
	head := p.chain.Height()
	var low types.Hash
	lowest := uint64(math.MaxUint64)
	for h, n := range p.failed {
		if n+chain.StateWindow < head {
			delete(p.failed, h)
		} else if n < lowest || n == lowest && bytes.Compare(h[:], low[:]) < 0 {
			low, lowest = h, n
		}
	}
	if len(p.failed) >= maxParked {
		delete(p.failed, low)
	}
	p.failed[hash] = height
}

// failOldestLocked fails the parked block that arrived first, and its
// subtree, with ErrParkedCap. Caller holds p.mu.
func (p *Pipeline) failOldestLocked() {
	var oldest *pendingBlock
	for _, parked := range p.waiting {
		for _, pb := range parked {
			if oldest == nil || pb.arrived.Before(oldest.arrived) {
				oldest = pb
			}
		}
	}
	parent := oldest.block.Header.ParentHash
	p.waiting[parent] = slices.DeleteFunc(p.waiting[parent], func(pb *pendingBlock) bool { return pb == oldest })
	if len(p.waiting[parent]) == 0 {
		delete(p.waiting, parent)
	}
	p.parked--
	telemetry.PipelineWaiting.Add(-1)
	p.send(oldest, Outcome{Block: oldest.block, Err: ErrParkedCap, Elapsed: time.Since(oldest.arrived)})
	_ = p.failSubtreeLocked(oldest.hash, ErrParkedCap)
}

// unvalidatable returns what a block's validation would reach however long
// it waited, its header being fixed by its hash: another gas limit than the
// chain's, or a height at or below head − chain.StateWindow, or a parent
// that validated but whose state has left the window (a head that moved
// past the bound after it was read); or, the cap by height, one more than
// chain.StateWindow above head. Caller holds p.mu.
func (p *Pipeline) unvalidatable(block *types.Block) error {
	if err := chain.CheckGasLimit(&block.Header, p.params); err != nil {
		return fmt.Errorf("%w: %w", validator.ErrBadBlock, err)
	}
	if head := p.chain.Height(); head > chain.StateWindow && block.Number() <= head-chain.StateWindow {
		return fmt.Errorf("%w: block %d, head %d", chain.ErrStatePruned, block.Number(), head)
	} else if block.Number() > head+chain.StateWindow {
		return fmt.Errorf("%w: block %d, head %d", ErrParkedCap, block.Number(), head)
	}
	// Block is read first: an insert between the reads then shows its state.
	if parent := block.Header.ParentHash; p.chain.Block(parent) != nil && p.chain.StateOf(parent) == nil {
		return chain.ErrStatePruned
	}
	return nil
}

// startLocked launches pb's validation, or queues it behind maxSiblings
// running ones on its parent. The first block started on a parent leads that
// parent's sibling record. Caller holds p.mu.
func (p *Pipeline) startLocked(pb *pendingBlock) {
	parent := pb.block.Header.ParentHash
	ref, ok := p.siblings[parent]
	if !ok {
		ref.sib = validator.NewSiblings(pb.block)
		pb.lead = true
	}
	ref.refs++
	pb.sib = ref.sib
	p.running++
	telemetry.PipelineInflight.Add(1)
	if ref.refs-len(ref.queued) > maxSiblings {
		ref.queued = append(ref.queued, pb)
	} else {
		go p.run(pb)
	}
	p.siblings[parent] = ref
}

// run validates one block whose parent state is available.
func (p *Pipeline) run(pb *pendingBlock) {
	block, bh := pb.block, pb.hash
	if beforeValidate != nil {
		beforeValidate(block)
	}
	node, tr := p.cfg.Node, trace.Resolve(p.cfg.Tracer)
	if tr != nil {
		// Attribute the pre-validation latency: time parked behind the
		// parent (parent_wait) and time between release and this goroutine
		// actually starting (queue_wait / scheduler backpressure).
		now := time.Now()
		queuedFrom := pb.arrived
		if !pb.released.IsZero() {
			tr.RecordSpan(node, trace.StageParentWait, bh, block.Header.Number, pb.arrived, pb.released)
			queuedFrom = pb.released
		}
		tr.RecordSpan(node, trace.StageQueue, bh, block.Header.Number, queuedFrom, now)
	}
	parentBlock := p.chain.Block(block.Header.ParentHash)
	parentState := p.chain.StateOf(block.Header.ParentHash)

	// A parent state pruned since Submit is nil here: ErrStatePruned.
	res, err := validator.ValidateSibling(parentState, &parentBlock.Header, block, p.cfg, p.params, pb.sib, pb.lead)
	out := Outcome{Block: block, Result: res, Err: err, Elapsed: time.Since(pb.arrived)}
	if err == nil {
		// Marked before the insert makes the state visible, so a child
		// submitted from here on parks until this outcome is sent. Only a
		// block that validated marks its hash, and only it clears the mark.
		p.mu.Lock()
		p.unsent[bh] = true
		p.mu.Unlock()
		if insErr := p.chain.Insert(block, res.State); insErr != nil {
			out.Err = insErr
		} else {
			p.mark(trace.StageInsert, pb)
		}
	}
	if afterInsert != nil {
		afterInsert(block)
	}
	telemetry.PipelineBlockSeconds.ObserveDuration(out.Elapsed)
	p.send(pb, out)

	// The outcome is sent: a child parked behind this block may start.
	p.mu.Lock()
	if err == nil {
		delete(p.unsent, bh)
	}
	parent := block.Header.ParentHash
	if ref := p.siblings[parent]; ref.refs == 1 {
		delete(p.siblings, parent)
		ref.sib.Release()
	} else {
		ref.refs--
		if len(ref.queued) > 0 {
			go p.run(ref.queued[0])
			ref.queued = ref.queued[1:]
		}
		p.siblings[parent] = ref
	}
	if out.Err == nil {
		// Commitment done: release children waiting on this block.
		children := p.waiting[bh]
		delete(p.waiting, bh)
		p.parked -= len(children)
		telemetry.PipelineWaiting.Add(-int64(len(children)))
		now := time.Now()
		for _, c := range children {
			c.released = now
			p.startLocked(c)
		}
	} else {
		// A rejected block strands its descendants: fail the subtree, and
		// the children still to come.
		p.rememberLocked(bh, block.Number())
		_ = p.failSubtreeLocked(bh, out.Err)
	}
	p.running--
	telemetry.PipelineInflight.Add(-1)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// failSubtreeLocked rejects every block waiting (transitively) on a failed
// parent, returning how many were failed. The children of a remembered
// parent are remembered too. Caller holds p.mu.
func (p *Pipeline) failSubtreeLocked(parent types.Hash, cause error) int {
	children := p.waiting[parent]
	delete(p.waiting, parent)
	p.parked -= len(children)
	telemetry.PipelineWaiting.Add(-int64(len(children)))
	_, remember := p.failed[parent]
	n := len(children)
	for _, c := range children {
		p.send(c, Outcome{Block: c.block, Err: cause, Elapsed: time.Since(c.arrived)})
		if remember {
			p.rememberLocked(c.hash, c.block.Number())
		}
		n += p.failSubtreeLocked(c.hash, cause)
	}
	return n
}

// send delivers pb's outcome; a failed one leaves a reject mark first.
func (p *Pipeline) send(pb *pendingBlock, out Outcome) {
	if out.Err != nil {
		p.mark(trace.StageReject, pb)
	}
	p.results <- out
}

// mark records a zero-duration stage of pb on this node — insert or reject:
// it anchors reorg and anti-entropy analysis without entering the tiling.
func (p *Pipeline) mark(stage trace.Stage, pb *pendingBlock) {
	if tr := trace.Resolve(p.cfg.Tracer); tr != nil {
		now := time.Now()
		tr.RecordSpan(p.cfg.Node, stage, pb.hash, pb.block.Header.Number, now, now)
	}
}

// Pending reports how many blocks the pipeline currently holds: active
// validations, siblings queued behind them, and blocks parked behind
// unresolved parents. The health recorder's sim probe uses this as its work
// gauge.
func (p *Pipeline) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running + p.parked
}

// Wait blocks until no validation is running or queued. Blocks parked behind
// a parent that has not arrived are not flushed — Abandon or Close handles
// those.
func (p *Pipeline) Wait() {
	p.mu.Lock()
	for p.running > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// Abandon fails all blocks still parked behind unavailable parents and
// returns how many were abandoned.
func (p *Pipeline) Abandon(cause error) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for len(p.waiting) > 0 {
		for h := range p.waiting {
			n += p.failSubtreeLocked(h, cause)
			break
		}
	}
	return n
}

// Close waits for in-flight work, abandons unresolvable blocks, shuts the
// owned worker pool down and closes the results channel.
func (p *Pipeline) Close() {
	p.Wait()
	p.Abandon(ErrParentUnavailable)
	p.Wait()
	if p.ownPool {
		p.pool.Close()
	}
	close(p.results)
}
