package mv

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
)

// ExecResult is what one incarnation of a transaction produced: its change
// set (nil for a transaction that failed validity checks and wrote nothing)
// and an opaque payload for the caller (receipt, fee, profile, error).
type ExecResult struct {
	Writes *state.ChangeSet
	Data   any
}

// ExecFunc executes transaction idx against the given multi-version view.
// It is called once per incarnation, possibly concurrently for different
// indices, and must treat the view as the only source of state reads. A
// read that lands on an ESTIMATE aborts the call by panic; the instance
// catches it, so ExecFunc must not install recover() around view reads.
type ExecFunc func(idx, worker int, view state.Reader) ExecResult

// Stats are the engine counters one run accumulated.
type Stats struct {
	Executions      int64 // completed incarnations (including the first of each tx)
	Reexecutions    int64 // completed incarnations beyond each tx's first
	EstimateHits    int64 // reads that suspended on an ESTIMATE
	ValidationFails int64 // validation aborts (writes flipped to ESTIMATEs)
}

// Instance is one MV-STM block execution: the multi-version memory, the
// per-round scheduler, and the worker loop. Transactions are claimed in
// rounds (the proposer pops one batch per round from the mempool — at most
// one per sender, so same-sender nonce chains always run in ascending index
// order across rounds); Run executes and validates one round to quiescence
// before the next is claimed, so ESTIMATE dependencies never cross rounds.
type Instance struct {
	mem  *Memory
	exec ExecFunc
	n    int // transactions claimed so far
	data []atomic.Pointer[txExec]

	// lastWindow carries the speculation window across claim rounds
	// (-1 until the first round finishes).
	lastWindow int64

	executions      atomic.Int64
	reexecutions    atomic.Int64
	estimateHits    atomic.Int64
	validationFails atomic.Int64

	// contentionHook, when set, observes the contended key of each ESTIMATE
	// suspension and of each validation abort (its first read that no longer
	// resolves): the adaptive controller's contention feed. Under Block-STM
	// hot-key pressure mostly shows up as suspensions — the speculation
	// window and ESTIMATE markers prevent the doomed execution — so both
	// signals are needed. Called from worker goroutines; must be thread-safe
	// and cheap.
	contentionHook func(idx int, key types.StateKey)
}

// NewInstance returns an empty instance over base.
func NewInstance(base state.Reader, exec ExecFunc) *Instance {
	return &Instance{mem: NewMemory(base), exec: exec, lastWindow: -1}
}

// SetContentionHook installs the contended-key callback. Must be called
// before the first Run.
func (in *Instance) SetContentionHook(f func(idx int, key types.StateKey)) {
	in.contentionHook = f
}

// SetStaleReads enables the seeded-bug fault injection used by the
// simulator's mutation self-check (docs/TESTING.md): every read resolves
// from the base snapshot and validation passes vacuously, i.e. MV-STM with
// its multi-version resolution and validation pass broken out. The
// serializability oracle must catch the resulting block.
func (in *Instance) SetStaleReads(v bool) { in.mem.stale = v }

// WindowHint returns the speculation window after the last round, or -1 if
// no round has run. The proposer carries it across blocks the way TCP
// carries congestion state across segments: a hotspot that collapsed the
// window in one block is almost certainly still hot in the next, so the
// next block starts serial instead of re-paying the discovery burst.
func (in *Instance) WindowHint() int64 { return in.lastWindow }

// SetWindowHint seeds the first round's speculation window (negative values
// mean "no hint": start fully speculative).
func (in *Instance) SetWindowHint(w int64) { in.lastWindow = w }

// Run claims count more transactions (absolute indices [n, n+count)) and
// executes + validates them to quiescence with the given worker count.
func (in *Instance) Run(count, threads int) {
	if count <= 0 {
		return
	}
	lo := in.n
	in.n += count
	in.mem.grow(in.n)
	for len(in.data) < in.n {
		in.data = append(in.data, atomic.Pointer[txExec]{})
	}
	sched := NewScheduler(lo, in.n)
	if in.lastWindow >= 0 {
		// Carry the contention signal across rounds: a collapsed window
		// stays collapsed instead of re-discovering the hotspot per round.
		sched.SetWindow(in.lastWindow)
	}
	if threads < 1 {
		threads = 1
	}
	if threads > count {
		threads = count
	}
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			in.work(sched, worker)
		}(w)
	}
	wg.Wait()
	in.lastWindow = sched.Window()
}

// work is one worker's task loop (paper Algorithm 3).
func (in *Instance) work(sched *Scheduler, worker int) {
	var (
		task   Task
		has    bool
		misses int
	)
	for !sched.Done() {
		if !has {
			task, has = sched.NextTask()
			if !has {
				misses++
				if misses > 256 {
					// Long idle stretch (a dependency chain is draining on
					// another worker): stop burning the core.
					time.Sleep(5 * time.Microsecond)
				} else {
					runtime.Gosched()
				}
				continue
			}
			misses = 0
		}
		switch task.Kind {
		case TaskExecute:
			task, has = in.tryExecute(sched, worker, task)
		case TaskValidate:
			task, has = in.validate(sched, task)
		default:
			has = false
		}
	}
}

// tryExecute runs one incarnation. A suspension parks the transaction on
// its blocking dependency (or retries immediately when the dependency
// resolved concurrently); a completed incarnation records its writes and
// read set and lets the scheduler decide what to validate.
func (in *Instance) tryExecute(sched *Scheduler, worker int, task Task) (Task, bool) {
	for {
		res, dep := in.execOnce(worker, task.Idx)
		if dep != nil {
			in.estimateHits.Add(1)
			if in.contentionHook != nil {
				in.contentionHook(task.Idx, dep.key)
			}
			if !sched.AddDependency(task.Idx, dep.blocking) {
				continue // dependency already landed: retry this incarnation
			}
			return Task{}, false
		}
		in.executions.Add(1)
		// A re-execution is a completed incarnation of a transaction that
		// already completed one. task.Inc > 0 is not that: a transaction
		// that suspended on an ESTIMATE resumes under a fresh incarnation
		// number, so its first completed run may carry Inc > 0.
		if in.data[task.Idx].Swap(res) != nil {
			in.reexecutions.Add(1)
		}
		wroteNew := in.mem.Record(task.Idx, task.Inc, res.reads, res.out.Writes)
		return sched.FinishExecution(task.Idx, task.Inc, wroteNew)
	}
}

// txExec is one completed incarnation before recording.
type txExec struct {
	out   ExecResult
	reads []ReadRecord
}

// execOnce builds a fresh view and runs the caller's executor, translating
// an ESTIMATE suspension (depError panic) into a dependency result.
func (in *Instance) execOnce(worker, idx int) (res *txExec, dep *depError) {
	v := newView(in.mem, idx)
	defer func() {
		if r := recover(); r != nil {
			d, ok := r.(depError)
			if !ok {
				panic(r)
			}
			dep = &d
			res = nil
		}
	}()
	out := in.exec(idx, worker, v)
	return &txExec{out: out, reads: v.recs}, nil
}

// validate re-resolves one executed incarnation's read set; a mismatch
// aborts it (writes become ESTIMATEs) and re-arms its next incarnation.
func (in *Instance) validate(sched *Scheduler, task Task) (Task, bool) {
	aborted := false
	if stale, ok := in.mem.ValidateReadSet(task.Idx); !ok && sched.TryValidationAbort(task.Idx, task.Inc) {
		in.validationFails.Add(1)
		if in.contentionHook != nil {
			in.contentionHook(task.Idx, stale.Key())
		}
		in.mem.ConvertToEstimates(task.Idx)
		aborted = true
	}
	return sched.FinishValidation(task.Idx, aborted)
}

// Data returns the caller payload of transaction idx's final incarnation.
func (in *Instance) Data(idx int) any {
	if res := in.data[idx].Load(); res != nil {
		return res.out.Data
	}
	return nil
}

// Purge evicts transaction idx's writes (gas-limit cut at finalization).
// Purge the highest index first. The transaction's completed incarnation is
// forgotten with its writes.
func (in *Instance) Purge(idx int) {
	in.mem.Purge(idx)
	in.data[idx].Store(nil)
}

// Flatten merges every surviving write into one change set, equivalent to
// applying the claimed transactions serially in index order.
func (in *Instance) Flatten() *state.ChangeSet { return in.mem.Flatten() }

// Stats returns the run's accumulated counters.
func (in *Instance) Stats() Stats {
	return Stats{
		Executions:      in.executions.Load(),
		Reexecutions:    in.reexecutions.Load(),
		EstimateHits:    in.estimateHits.Load(),
		ValidationFails: in.validationFails.Load(),
	}
}
