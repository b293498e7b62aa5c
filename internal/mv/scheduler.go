package mv

import (
	"sync"
	"sync/atomic"
)

// The collaborative scheduler of Block-STM (PAPERS.md, Algorithm 4): worker
// threads pull execution and validation tasks ordered by transaction index
// from two atomic cursors. Executing an incarnation that wrote a path its
// predecessor did not resets the validation cursor (everything above must
// be re-checked); a failed validation aborts the incarnation, converts its
// writes to ESTIMATEs and schedules the next incarnation; a reader that
// suspends on an ESTIMATE parks in the blocking transaction's dependency
// list and is resumed — with a fresh incarnation — when the blocking write
// lands. The run is over when both cursors passed the end with no active
// task and no concurrent cursor decrease (the double-read of decreaseCnt).
//
// The scheduler covers one claim round [lo, hi) of absolute transaction
// indices; earlier rounds are fully executed and validated, so
// cross-round dependencies cannot occur.

// TaskKind says what a worker should do with a task.
type TaskKind uint8

const (
	// TaskNone means no work was available.
	TaskNone TaskKind = iota
	// TaskExecute runs incarnation Inc of transaction Idx.
	TaskExecute
	// TaskValidate re-resolves the read set of incarnation Inc of Idx.
	TaskValidate
)

// Task is one unit of scheduler work.
type Task struct {
	Kind TaskKind
	Idx  int
	Inc  int
}

// txStatus is the per-transaction state machine: ready → executing →
// executed, with aborting covering both a suspension (waiting on a
// dependency) and a validation abort (waiting for its next incarnation to
// be claimed).
type txStatus uint8

const (
	statReady txStatus = iota
	statExecuting
	statExecuted
	statAborting
)

// txState is one transaction's status, incarnation counter and the list of
// higher transactions suspended on it. One mutex guards all three: the
// status hand-offs double as the happens-before edges for the memory's
// per-transaction write bookkeeping.
type txState struct {
	mu   sync.Mutex
	stat txStatus
	inc  int
	deps []int
}

// Scheduler dispatches execution and validation tasks for indices [lo, hi).
//
// Speculation is bounded: no execution task is handed out more than
// `window` indices above the frontier (the lowest not-yet-executed
// transaction). The window collapses to zero on a validation conflict and
// recovers one index per windowProbeStreak consecutive clean validations,
// so conflict-free traffic runs fully speculative while a contended block
// pins itself to serial index-order execution — where Block-STM wastes no
// incarnations at all — and only occasionally probes whether the
// contention has passed. Unbounded speculation on a contended block is
// pure loss: every incarnation launched above the conflict frontier reads
// stale versions, fails validation and re-executes, so the engine pays
// ~2x the serial execution cost for nothing. A gentler halving policy
// does not work: every committed transaction contributes ~2 clean
// validations against at most one conflict, so any per-validation
// additive recovery outruns the decay and the window floats high enough
// to keep every speculative incarnation stale.
type Scheduler struct {
	lo, hi int
	txs    []txState

	executionIdx  atomic.Int64
	validationIdx atomic.Int64
	decreaseCnt   atomic.Int64
	numActive     atomic.Int64
	done          atomic.Bool

	frontier atomic.Int64 // monotone lowest-unexecuted-index watermark
	window   atomic.Int64 // speculation bound above the frontier
	streak   atomic.Int64 // consecutive clean validations since the last conflict
}

// NewScheduler covers the round of absolute indices [lo, hi).
func NewScheduler(lo, hi int) *Scheduler {
	s := &Scheduler{lo: lo, hi: hi, txs: make([]txState, hi-lo)}
	s.executionIdx.Store(int64(lo))
	s.validationIdx.Store(int64(lo))
	s.frontier.Store(int64(lo))
	// Start fully speculative; the first conflicts shrink it.
	s.window.Store(int64(hi - lo))
	return s
}

func (s *Scheduler) tx(idx int) *txState { return &s.txs[idx-s.lo] }

// Window returns the current speculation window (cross-round carry).
func (s *Scheduler) Window() int64 { return s.window.Load() }

// SetWindow clamps and installs an initial speculation window — the
// instance carries the previous round's final window into the next round,
// so a block that collapsed to serial execution does not re-pay the
// discovery burst every mvRoundCap transactions.
func (s *Scheduler) SetWindow(w int64) {
	if w > int64(s.hi-s.lo) {
		w = int64(s.hi - s.lo)
	}
	if w < 0 {
		w = 0
	}
	s.window.Store(w)
}

// Done reports whether every transaction of the round is executed and
// validated.
func (s *Scheduler) Done() bool { return s.done.Load() }

// checkDone is the paper's termination test: read decreaseCnt, check both
// cursors and the active count, and only conclude if no cursor decrease
// happened in between (the && evaluation order performs the double read).
func (s *Scheduler) checkDone() {
	observed := s.decreaseCnt.Load()
	if min(s.executionIdx.Load(), s.validationIdx.Load()) >= int64(s.hi) &&
		s.numActive.Load() == 0 &&
		observed == s.decreaseCnt.Load() {
		s.done.Store(true)
	}
}

// decrease moves cursor down to at (never up) and bumps the decrease count
// so a racing checkDone cannot conclude early.
func (s *Scheduler) decrease(cursor *atomic.Int64, at int) {
	for {
		cur := cursor.Load()
		if int64(at) >= cur {
			break
		}
		if cursor.CompareAndSwap(cur, int64(at)) {
			break
		}
	}
	s.decreaseCnt.Add(1)
}

// tryIncarnate claims idx for execution if it is ready. On failure the
// caller's active-task slot is released.
func (s *Scheduler) tryIncarnate(idx int) (Task, bool) {
	if idx < s.hi {
		t := s.tx(idx)
		t.mu.Lock()
		if t.stat == statReady {
			t.stat = statExecuting
			inc := t.inc
			t.mu.Unlock()
			return Task{Kind: TaskExecute, Idx: idx, Inc: inc}, true
		}
		t.mu.Unlock()
	}
	s.numActive.Add(-1)
	return Task{}, false
}

// advanceFrontier lazily walks the watermark past every executed
// transaction and publishes it monotonically. A transaction that later
// aborts back out of statExecuted may leave the watermark slightly high —
// that only loosens the speculation gate for a moment, never blocks
// progress, and the cursor-decrease machinery re-dispatches the abort
// regardless of the gate (re-executions at or below the frontier are
// always admissible).
func (s *Scheduler) advanceFrontier() int64 {
	f := s.frontier.Load()
	for f < int64(s.hi) {
		t := &s.txs[f-int64(s.lo)]
		t.mu.Lock()
		executed := t.stat == statExecuted
		t.mu.Unlock()
		if !executed {
			break
		}
		f++
	}
	for {
		cur := s.frontier.Load()
		if f <= cur {
			return cur
		}
		if s.frontier.CompareAndSwap(cur, f) {
			return f
		}
	}
}

// windowProbeStreak is how many consecutive clean validations reopen the
// speculation window by one index after a collapse. It is the probe rate
// on a contended block: one speculative (likely wasted) incarnation per
// windowProbeStreak commits, i.e. a worst-case re-execution ratio of
// ~1/windowProbeStreak once the window has pinned itself to zero.
const windowProbeStreak = 128

// onValidationPass / onValidationFail adapt the speculation window: a
// conflict slams it to zero (only the frontier transaction itself may
// execute — serial index order), a streak of clean validations reopens it
// one index at a time.
func (s *Scheduler) onValidationPass() {
	if s.streak.Add(1)%windowProbeStreak != 0 {
		return
	}
	for {
		w := s.window.Load()
		if w >= int64(s.hi-s.lo) {
			return
		}
		if s.window.CompareAndSwap(w, w+1) {
			return
		}
	}
}

func (s *Scheduler) onValidationFail() {
	s.streak.Store(0)
	s.window.Store(0)
}

func (s *Scheduler) nextVersionToExecute() (Task, bool) {
	idx := s.executionIdx.Load()
	if idx >= int64(s.hi) {
		s.checkDone()
		return Task{}, false
	}
	if idx > s.advanceFrontier()+s.window.Load() {
		// Speculation gate: this index is too far above the conflict
		// frontier to be worth executing yet. Let the frontier drain.
		return Task{}, false
	}
	s.numActive.Add(1)
	idx = s.executionIdx.Add(1) - 1
	return s.tryIncarnate(int(idx))
}

func (s *Scheduler) nextVersionToValidate() (Task, bool) {
	if s.validationIdx.Load() >= int64(s.hi) {
		s.checkDone()
		return Task{}, false
	}
	s.numActive.Add(1)
	idx := int(s.validationIdx.Add(1) - 1)
	if idx < s.hi {
		t := s.tx(idx)
		t.mu.Lock()
		if t.stat == statExecuted {
			inc := t.inc
			t.mu.Unlock()
			return Task{Kind: TaskValidate, Idx: idx, Inc: inc}, true
		}
		t.mu.Unlock()
	}
	s.numActive.Add(-1)
	return Task{}, false
}

// NextTask hands an idle worker its next unit of work, preferring the lower
// cursor so validation keeps pace with execution.
func (s *Scheduler) NextTask() (Task, bool) {
	if s.validationIdx.Load() < s.executionIdx.Load() {
		return s.nextVersionToValidate()
	}
	return s.nextVersionToExecute()
}

// AddDependency parks idx in blocking's dependency list, flipping idx to
// aborting (suspended) while holding blocking's lock so a concurrent resume
// cannot slip between the append and the status change. It reports false —
// retry execution immediately — when blocking already finished.
func (s *Scheduler) AddDependency(idx, blocking int) bool {
	b := s.tx(blocking)
	t := s.tx(idx)
	b.mu.Lock()
	if b.stat == statExecuted {
		b.mu.Unlock()
		return false
	}
	b.deps = append(b.deps, idx)
	t.mu.Lock() // blocking < idx: lock order is ascending, deadlock-free
	t.stat = statAborting
	t.mu.Unlock()
	b.mu.Unlock()
	s.numActive.Add(-1)
	return true
}

// setReady schedules a transaction's next incarnation.
func (s *Scheduler) setReady(idx int) {
	t := s.tx(idx)
	t.mu.Lock()
	t.inc++
	t.stat = statReady
	t.mu.Unlock()
}

// FinishExecution marks idx executed, resumes every transaction suspended
// on it, and decides what to validate: a new-path write resets the
// validation cursor to idx, otherwise only idx itself needs (re)checking.
func (s *Scheduler) FinishExecution(idx, inc int, wroteNew bool) (Task, bool) {
	t := s.tx(idx)
	t.mu.Lock()
	t.stat = statExecuted
	deps := t.deps
	t.deps = nil
	t.mu.Unlock()
	minDep := -1
	for _, d := range deps {
		s.setReady(d)
		if minDep < 0 || d < minDep {
			minDep = d
		}
	}
	if minDep >= 0 {
		s.decrease(&s.executionIdx, minDep)
	}
	if s.validationIdx.Load() > int64(idx) {
		if wroteNew {
			s.decrease(&s.validationIdx, idx)
		} else {
			return Task{Kind: TaskValidate, Idx: idx, Inc: inc}, true
		}
	}
	s.numActive.Add(-1)
	return Task{}, false
}

// TryValidationAbort aborts incarnation inc of idx if it is still the
// executed one; only one racing validator wins.
func (s *Scheduler) TryValidationAbort(idx, inc int) bool {
	t := s.tx(idx)
	t.mu.Lock()
	if t.inc == inc && t.stat == statExecuted {
		t.stat = statAborting
		t.mu.Unlock()
		s.onValidationFail()
		return true
	}
	t.mu.Unlock()
	return false
}

// FinishValidation retires a validation task. An aborted transaction is
// re-armed, everything above it is queued for revalidation, and — when the
// execution cursor already passed it — its re-execution is claimed
// immediately so the worker keeps the dependency chain hot.
func (s *Scheduler) FinishValidation(idx int, aborted bool) (Task, bool) {
	if !aborted {
		s.onValidationPass()
	}
	if aborted {
		s.setReady(idx)
		s.decrease(&s.validationIdx, idx+1)
		if s.executionIdx.Load() > int64(idx) {
			if task, ok := s.tryIncarnate(idx); ok {
				return task, true
			}
			// tryIncarnate released the active-task slot already.
			return Task{}, false
		}
	}
	s.numActive.Add(-1)
	return Task{}, false
}
