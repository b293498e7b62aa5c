// Package scheduler is the paper's validator preparation phase (§4.3) as
// an analysis: it builds the transaction dependency graph from the block
// profile's read/write sets, groups conflicting transactions into
// connected-component subgraphs with union-find, and assigns subgraphs to
// worker threads by gas-weighted LPT (heaviest component first onto the
// least-loaded thread). The validator's lanes follow its writer index
// instead (DESIGN.md §5.12): it builds components only for Result.Stats and
// the flight recorder's assign events.
//
// Gas is the scheduling weight because the costliest EVM operations (SLOAD,
// SSTORE) carry the highest gas costs, making gas a usable execution-time
// proxy — the paper's §4.3 observation.
package scheduler

import (
	"sort"

	"blockpilot/internal/types"
)

// Component is one dependency subgraph: the indices (block order) of
// transactions that must execute serially relative to each other.
type Component struct {
	TxIndices []int
	Gas       uint64
}

// Schedule is the thread assignment for one block.
type Schedule struct {
	// ThreadTxs[i] lists the tx indices thread i executes, in block order.
	ThreadTxs [][]int
	// ThreadGas[i] is the scheduled gas weight of thread i.
	ThreadGas []uint64
}

// Stats summarizes a block's conflict structure (the Fig. 8 statistics).
type Stats struct {
	TxCount          int
	ComponentCount   int
	LargestComponent int
	LargestRatio     float64 // |largest| / TxCount
	CriticalPathGas  uint64  // gas of the heaviest component
	TotalGas         uint64
	ParallelismUpper float64 // TotalGas / CriticalPathGas: speedup bound
}

// unionFind is a standard disjoint-set with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// keyTouch records who touched one state key and how.
type keyTouch struct {
	touchers  []int
	hasWriter bool
}

// BuildComponents groups the block's transactions into dependency subgraphs.
// Two transactions are connected when one writes a key the other reads or
// writes (read-read sharing is not a conflict). accountLevel coarsens slot
// keys to their account, matching the paper's validator; slot granularity is
// kept for the ablation study.
func BuildComponents(profile *types.BlockProfile, accountLevel bool) []Component {
	n := len(profile.Txs)
	uf := newUnionFind(n)

	norm := func(k types.StateKey) types.StateKey {
		if accountLevel {
			return types.AccountKey(k.Addr)
		}
		return k
	}

	keys := make(map[types.StateKey]*keyTouch)
	touch := func(tx int, k types.StateKey, write bool) {
		t := keys[k]
		if t == nil {
			t = &keyTouch{}
			keys[k] = t
		}
		if len(t.touchers) == 0 || t.touchers[len(t.touchers)-1] != tx {
			t.touchers = append(t.touchers, tx)
		}
		t.hasWriter = t.hasWriter || write
	}
	for i, tp := range profile.Txs {
		for _, kv := range tp.Reads {
			touch(i, norm(kv.Key), false)
		}
		for _, k := range tp.Writes {
			touch(i, norm(k), true)
		}
	}
	for _, t := range keys {
		if !t.hasWriter {
			continue // read-only key: no ordering constraint
		}
		for i := 1; i < len(t.touchers); i++ {
			uf.union(t.touchers[0], t.touchers[i])
		}
	}

	// Materialize components in deterministic (block) order.
	byRoot := make(map[int]*Component)
	var order []int
	for i := 0; i < n; i++ {
		r := uf.find(i)
		c := byRoot[r]
		if c == nil {
			c = &Component{}
			byRoot[r] = c
			order = append(order, r)
		}
		c.TxIndices = append(c.TxIndices, i)
		c.Gas += profile.Txs[i].GasUsed
	}
	out := make([]Component, 0, len(order))
	for _, r := range order {
		out = append(out, *byRoot[r])
	}
	return out
}

// AssignLPT schedules components onto `threads` workers: heaviest component
// first, each onto the currently least-loaded thread. Within a thread,
// transactions keep block order.
func AssignLPT(components []Component, threads int) *Schedule {
	if threads < 1 {
		threads = 1
	}
	s := &Schedule{
		ThreadTxs: make([][]int, threads),
		ThreadGas: make([]uint64, threads),
	}
	order := make([]int, len(components))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return components[order[a]].Gas > components[order[b]].Gas
	})
	for _, ci := range order {
		// Least-loaded thread (linear scan: thread counts are small).
		best := 0
		for t := 1; t < threads; t++ {
			if s.ThreadGas[t] < s.ThreadGas[best] {
				best = t
			}
		}
		s.ThreadTxs[best] = append(s.ThreadTxs[best], components[ci].TxIndices...)
		s.ThreadGas[best] += components[ci].Gas
	}
	for t := range s.ThreadTxs {
		sort.Ints(s.ThreadTxs[t])
	}
	return s
}

// AssignRoundRobin is the naive ablation baseline: components are dealt to
// threads in discovery order, ignoring gas weight.
func AssignRoundRobin(components []Component, threads int) *Schedule {
	if threads < 1 {
		threads = 1
	}
	s := &Schedule{
		ThreadTxs: make([][]int, threads),
		ThreadGas: make([]uint64, threads),
	}
	for i, c := range components {
		t := i % threads
		s.ThreadTxs[t] = append(s.ThreadTxs[t], c.TxIndices...)
		s.ThreadGas[t] += c.Gas
	}
	for t := range s.ThreadTxs {
		sort.Ints(s.ThreadTxs[t])
	}
	return s
}

// ComputeStats summarizes the conflict structure of a component set.
func ComputeStats(components []Component) Stats {
	var st Stats
	st.ComponentCount = len(components)
	for _, c := range components {
		st.TxCount += len(c.TxIndices)
		st.TotalGas += c.Gas
		if len(c.TxIndices) > st.LargestComponent {
			st.LargestComponent = len(c.TxIndices)
		}
		if c.Gas > st.CriticalPathGas {
			st.CriticalPathGas = c.Gas
		}
	}
	if st.TxCount > 0 {
		st.LargestRatio = float64(st.LargestComponent) / float64(st.TxCount)
	}
	if st.CriticalPathGas > 0 {
		st.ParallelismUpper = float64(st.TotalGas) / float64(st.CriticalPathGas)
	}
	return st
}
