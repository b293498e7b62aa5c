package core

import (
	"blockpilot/internal/state"
	"blockpilot/internal/types"
)

// The tests' names for mvState and its store: MVState and NewMVState for the
// type, Version and Flatten for the store's Latest and Flatten, and TryCommit
// for the store's Commit without the winner, which no test looks at.
type MVState = mvState

func NewMVState(base *state.Snapshot) *MVState { return newMVState(base) }

func (mv *mvState) Version() types.Version { return mv.store.Latest() }

func (mv *mvState) Flatten() *state.ChangeSet { return mv.store.Flatten() }

func (mv *mvState) TryCommit(access *types.AccessSet, cs *state.ChangeSet) (types.Version, types.StateKey, bool) {
	v, key, _, ok := mv.store.Commit(access, cs)
	return v, key, ok
}
