// Package consensus simulates the block-production schedule of a Byzantine
// network: round-based proposer election with a configurable fork rate.
// When a round forks, two (or more) proposers produce competing blocks at
// the same height — exactly the situation that makes validators process
// more blocks than proposers (paper §3.4) and that the multi-block pipeline
// exists to absorb.
//
// This deliberately abstracts the agreement protocol itself (PoW/PBFT/...):
// BlockPilot is an execution framework, and all it needs from consensus is
// who proposes at each height and how often heights fork.
package consensus

import (
	"math/rand"

	"blockpilot/internal/types"
)

// Engine deterministically schedules proposers per round.
type Engine struct {
	rng       *rand.Rand
	proposers []types.Address
	forkProb  float64
	maxForks  int
}

// NewEngine creates a schedule over the given proposer identities.
// forkProb is the per-round probability of a fork; maxForks bounds how many
// competing blocks one round can produce (≥ 2 when a fork happens).
func NewEngine(seed int64, proposers []types.Address, forkProb float64, maxForks int) *Engine {
	if maxForks < 2 {
		maxForks = 2
	}
	return &Engine{
		rng:       rand.New(rand.NewSource(seed)),
		proposers: proposers,
		forkProb:  forkProb,
		maxForks:  maxForks,
	}
}

// ProposersForRound returns the proposer set for a round: usually one, more
// when the round forks. The first entry is the canonical winner (the block
// the fork choice eventually keeps).
func (e *Engine) ProposersForRound(round uint64) []types.Address {
	n := 1
	if e.rng.Float64() < e.forkProb {
		n = 2 + e.rng.Intn(e.maxForks-1)
		if n > len(e.proposers) {
			n = len(e.proposers)
		}
	}
	// Sample n distinct proposers.
	idx := e.rng.Perm(len(e.proposers))[:n]
	out := make([]types.Address, n)
	for i, j := range idx {
		out[i] = e.proposers[j]
	}
	return out
}
