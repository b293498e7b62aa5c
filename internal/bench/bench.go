// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) on the synthetic mainnet-like
// workload — proposer scalability (Fig. 6), single-block validator
// scalability vs the OCC baseline (Fig. 7a), the speedup distribution
// (Fig. 7b), the hotspot/largest-subgraph analysis (Fig. 8), the
// multi-block pipeline sweep (Fig. 9), the §5.2 correctness replay, and the
// two design ablations called out in DESIGN.md (scheduling policy and
// conflict granularity).
//
// Every figure is in virtual time (sim.go): transactions execute for real
// and are timed one by one, and the parallel makespan is derived from those
// costs, so the tables are the same on one core as on sixteen. The
// wall-clock counterpart on real cores is the regression harness,
// `go run ./benchmark`, and nothing here gates anything.
//
// Each Run* function returns a result struct with a Render method that
// prints the same rows/series the paper reports.
package bench

import (
	"fmt"

	"blockpilot/internal/chain"
	"blockpilot/internal/scheduler"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	Blocks   int   // measured blocks
	Repeats  int   // timing repeats per point (minimum is taken)
	Threads  []int // thread sweep
	Workload workload.Config
	Params   chain.Params
	Coinbase types.Address
}

// DefaultOptions mirrors the paper's setup scaled to a quick local run.
func DefaultOptions() Options {
	return Options{
		Blocks:   20,
		Repeats:  3,
		Threads:  []int{1, 2, 4, 6, 8, 12, 16},
		Workload: workload.Default(),
		Params:   chain.DefaultParams(),
		Coinbase: types.HexToAddress("0xc01bbace"),
	}
}

// fixture is a pre-built chain segment: for each measured block, its parent
// state/header, the sealed block (with profile), the raw transactions, and
// what every experiment derives its times from — the block's measured costs
// and its account-level conflict components (the paper's graph).
type fixture struct {
	parents       []*state.Snapshot
	parentHeaders []*types.Header
	blocks        []*types.Block
	txs           [][]*types.Transaction
	costs         []*blockCosts
	comps         [][]scheduler.Component
}

// buildFixture produces o.Blocks sequential sealed blocks via the serial
// reference executor (profiles included) and measures each one once.
func buildFixture(o Options) (*fixture, error) {
	g := workload.New(o.Workload)
	st := g.GenesisState()
	parentHeader := &types.Header{Number: 0, StateRoot: st.Root(), GasLimit: o.Params.GasLimit}

	f := &fixture{}
	for i := 0; i < o.Blocks; i++ {
		txs := g.NextBlockTxs()
		header := &types.Header{
			ParentHash: parentHeader.Hash(), Number: parentHeader.Number + 1,
			Coinbase: o.Coinbase, GasLimit: o.Params.GasLimit, Time: uint64(i + 1),
		}
		res, err := chain.ExecuteSerial(st, header, txs, o.Params)
		if err != nil {
			return nil, fmt.Errorf("fixture block %d: %w", i, err)
		}
		block := chain.SealBlock(parentHeader, o.Coinbase, uint64(i+1), txs, res, o.Params)
		costs, err := measureBlockCosts(st, block, o.Params, o.Repeats)
		if err != nil {
			return nil, fmt.Errorf("fixture block %d: %w", i, err)
		}
		f.costs = append(f.costs, costs)
		f.comps = append(f.comps, scheduler.BuildComponents(block.Profile, true))
		f.parents = append(f.parents, st)
		f.parentHeaders = append(f.parentHeaders, parentHeader)
		f.blocks = append(f.blocks, block)
		f.txs = append(f.txs, txs)
		st = res.State
		parentHeader = &block.Header
	}
	return f, nil
}

// geomean-free mean helper.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
