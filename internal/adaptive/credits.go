package adaptive

import (
	"sync"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// CreditPool accumulates commutative balance credits to hot accounts for one
// block. Instead of each pure transfer writing `balance(to) += v` through
// the versioned state — where every such write conflicts with every other —
// the proposer strips the recipient from the transaction's change set, adds
// the value here, and materializes the summed delta exactly once at seal,
// before FinalizationChange (the coinbase itself can be hot). Addition
// commutes, so the summed result equals any serial interleaving of the
// individual credits; this is the same aggregation the chain already
// performs for coinbase fees (DESIGN.md §4).
type CreditPool struct {
	mu     sync.Mutex
	deltas map[types.Address]*uint256.Int
}

// NewCreditPool returns an empty pool.
func NewCreditPool() *CreditPool {
	return &CreditPool{deltas: make(map[types.Address]*uint256.Int)}
}

// Add folds one credit of value to addr into the pool. Safe for concurrent
// use; the lock cost is irrelevant next to a commit.
func (p *CreditPool) Add(addr types.Address, value *uint256.Int) {
	p.mu.Lock()
	d, ok := p.deltas[addr]
	if !ok {
		d = new(uint256.Int)
		p.deltas[addr] = d
	}
	d.Add(d, value)
	p.mu.Unlock()
}

// Materialize adds the accumulated deltas to the block's change set total,
// each by a sorted insert or replace against r: for each credited account,
// balance = its balance in r + delta with the nonce carried through
// unchanged. r must already reflect every committed transaction of the block
// (total applied over the parent) and not read total itself, so a hot account
// that was also written normally — e.g. it sent a transaction too — picks up
// those effects first.
func (p *CreditPool) Materialize(r state.Reader, total *state.ChangeSet) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, d := range p.deltas { // disjoint accounts: the order is free
		acct, _ := r.Account(addr)
		acct.Balance.Add(&acct.Balance, d)
		total.SetAccount(addr, acct.Nonce, acct.Balance)
	}
}
