// Package adaptive closes the conflict-attribution loop (ISSUE 9, the NEMO
// direction from PAPERS.md): a contention controller that consumes a
// *windowed* (exponentially decaying) view of the abort-attribution stream —
// hot-key / hot-sender heavy-hitter sketches (TopK) — and feeds three online
// scheduling decisions back into the proposer:
//
//  1. Hot-key serial lane: transactions whose static access hints (sender
//     and recipient accounts) intersect the current hot set are diverted
//     from the parallel worker pool into one dedicated serial lane ordered
//     by gas price, so they commit without speculative aborts while cold
//     transactions keep full parallelism. Both engines wire the lane the
//     same way (OCC-WSI routes popped hot txs to a lane goroutine; MV-STM
//     runs the hot suffix of each claim round at one thread), so the
//     engine choice remains a clean ablation.
//  2. Commutative merge: pure balance credits to a hot account are folded
//     through a per-block delta accumulator (CreditPool) and materialized
//     once at seal, eliminating the hot-account conflict entirely — the
//     same trick the chain already plays with coinbase fees (DESIGN.md §4).
//  3. Abort-aware mempool ordering: internal/mempool learns a per-sender
//     abort EWMA from requeue events and de-prioritizes repeat aborters
//     (bounded demotion tiers + event-driven decay, so nothing is parked
//     forever). The controller only switches the policy on; the pool owns
//     the bookkeeping.
//
// Everything is off by default and sits behind ProposerConfig.Adaptive
// (bpbench -exp sim -adaptive, bpinspect adaptive). One Controller persists
// across blocks (the window is the whole point); BlockStart decays the
// sketches and republishes the hot set as an atomic pointer, so the
// per-transaction queries on the proposer hot path are an atomic load and a
// map probe per account, lock-free.
package adaptive

import (
	"sync"
	"sync/atomic"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
)

// Config switches off individual decisions for ablations. The zero value is
// the full controller.
type Config struct {
	// DisableMerge / DisableDemotion switch off decisions (2) and (3); the
	// serial lane is the controller's reason to exist and has no separate
	// switch.
	DisableMerge    bool
	DisableDemotion bool
}

const (
	// hotN bounds how many top hot-key and hot-sender sketch entries drive
	// the scheduling decisions each block. Small on purpose: the serial lane
	// must stay a lane, not become the block.
	hotN = 8
	// sketchK is how many candidates each sketch holds.
	sketchK = 64
	// minCount is the windowed abort count a sketch entry needs before it is
	// considered hot. Below it the controller publishes an empty hot set and
	// the proposer runs exactly as with adaptive off — no contention, no
	// intervention.
	minCount = 2
)

// Decay is the per-block decay factor of the window: the sketches' here, and
// the pool's per-sender abort EWMA the proposer ages alongside them. Counts
// halve per block, so the window is effectively the last ~log₂(count) blocks.
const Decay = 0.5

// HotSet is one published scheduling decision table: the accounts whose
// transactions divert to the serial lane (and qualify for commutative
// merge), plus the sketch rows behind them for reporting.
type HotSet struct {
	// Accounts maps every hot account address: hot-key owners (an abort on
	// a contract's storage slot marks the contract — any tx calling it is
	// lane traffic) and hot senders.
	Accounts map[types.Address]struct{}
	// Keys / Senders are the windowed sketch rows the set was built from.
	Keys    []Counted[types.StateKey]
	Senders []Counted[types.Address]
	// WindowAborts is the decayed abort mass in the window at publish time.
	WindowAborts uint64
}

// Controller is the per-proposer contention controller. One instance
// persists across blocks; all methods are safe for concurrent use.
type Controller struct {
	cfg Config

	mu           sync.Mutex // guards the sketches + windowed counters
	keys         *TopK[types.StateKey]
	senders      *TopK[types.Address]
	windowAborts float64

	hot atomic.Pointer[HotSet]

	blocks        atomic.Uint64
	laneTxs       atomic.Uint64
	mergedCredits atomic.Uint64
	abortsSeen    atomic.Uint64
}

// New returns a controller with cfg (zero value = every decision on).
func New(cfg Config) *Controller {
	return &Controller{
		cfg:     cfg,
		keys:    NewTopK[types.StateKey](sketchK),
		senders: NewTopK[types.Address](sketchK),
	}
}

// MergeEnabled reports whether commutative credit merging is on.
func (c *Controller) MergeEnabled() bool { return !c.cfg.DisableMerge }

// DemotionEnabled reports whether abort-aware mempool ordering is on.
func (c *Controller) DemotionEnabled() bool { return !c.cfg.DisableDemotion }

// NoteAbort feeds one conflict abort into the windowed sketches: the
// aborting sender and the conflicting key. Called by both engines right
// beside trace.Abort, so the controller works with the trace recorder
// disabled.
func (c *Controller) NoteAbort(sender types.Address, key types.StateKey) {
	c.abortsSeen.Add(1)
	c.mu.Lock()
	c.keys.Observe(key)
	c.senders.Observe(sender)
	c.windowAborts++
	c.mu.Unlock()
}

// BlockStart rolls the window forward one block: decay the sketches, rebuild
// the hot set from the surviving heavy hitters, and publish it atomically for
// the proposer's per-transaction queries. Called by Propose at the top of
// every block (both engines).
func (c *Controller) BlockStart() {
	c.blocks.Add(1)
	c.mu.Lock()
	c.keys.Decay(Decay)
	c.senders.Decay(Decay)
	c.windowAborts *= Decay

	hs := &HotSet{
		Accounts:     make(map[types.Address]struct{}),
		Keys:         c.keys.Top(hotN),
		Senders:      c.senders.Top(hotN),
		WindowAborts: uint64(c.windowAborts),
	}
	c.mu.Unlock()

	for _, k := range hs.Keys {
		if k.Count >= minCount {
			hs.Accounts[k.Key.Addr] = struct{}{}
		}
	}
	for _, s := range hs.Senders {
		if s.Count >= minCount {
			hs.Accounts[s.Key] = struct{}{}
		}
	}
	c.hot.Store(hs)
	telemetry.AdaptiveHotAccounts.Set(int64(len(hs.Accounts)))
}

// IsHot reports whether tx's static access hints — sender and recipient
// account — intersect the hot set: lane traffic. Never blocks the worker hot
// path.
func (c *Controller) IsHot(tx *types.Transaction) bool {
	return c.HotAccount(tx.From) || (!tx.CreateContract && c.HotAccount(tx.To))
}

// HotAccount reports whether addr itself is in the hot set (the commutative
// merge eligibility probe).
func (c *Controller) HotAccount(addr types.Address) bool {
	hs := c.hot.Load()
	if hs == nil {
		return false
	}
	_, ok := hs.Accounts[addr]
	return ok
}

// NoteLaneTx counts one transaction processed by the serial lane.
func (c *Controller) NoteLaneTx() {
	c.laneTxs.Add(1)
	telemetry.AdaptiveSerialLaneTxs.Inc()
}

// NoteMerge counts one commutatively merged credit.
func (c *Controller) NoteMerge() {
	c.mergedCredits.Add(1)
	telemetry.AdaptiveMergedCredits.Inc()
}
