package bench

import (
	"fmt"
	"strings"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/node"
	"blockpilot/internal/scheduler"
	"blockpilot/internal/stats"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// ---------------------------------------------------------------- §5.2 ----

// CorrectnessResult reports the replay check.
type CorrectnessResult struct {
	Blocks        int
	AllRootsMatch bool
	Detail        string
}

// RunCorrectness drives the full propose→validate→serial-replay loop over a
// fresh chain and checks that every stage agrees on every state root
// (paper §5.2, scaled down: the paper replays 10M mainnet blocks).
func RunCorrectness(o Options) (*CorrectnessResult, error) {
	g := workload.New(o.Workload)
	p := node.New(node.Config{Genesis: g.GenesisState(), Params: o.Params, Threads: 8, Coinbase: o.Coinbase})
	defer p.Close()

	for i := 0; i < o.Blocks; i++ {
		parent := p.Chain.Head()
		st, parentHeader := p.Chain.StateOf(parent.Hash()), &parent.Header
		txs := g.NextBlockTxs()
		p.Pool.AddAll(txs)
		prop, err := p.Propose()
		if err != nil {
			return nil, fmt.Errorf("block %d: propose: %w", i, err)
		}
		if prop.Committed != len(txs) {
			return nil, fmt.Errorf("block %d: packed %d of %d", i, prop.Committed, len(txs))
		}
		vres, err := validator.ValidateParallel(st, parentHeader, prop.Block, validator.DefaultConfig(8), o.Params)
		if err != nil {
			return nil, fmt.Errorf("block %d: validate: %w", i, err)
		}
		sres, err := chain.VerifyBlockSerial(st, parentHeader, prop.Block, o.Params)
		if err != nil {
			return nil, fmt.Errorf("block %d: serial replay: %w", i, err)
		}
		if vres.State.Root() != sres.State.Root() || vres.State.Root() != prop.Block.Header.StateRoot {
			return &CorrectnessResult{Blocks: i, AllRootsMatch: false,
				Detail: fmt.Sprintf("block %d roots diverge", i)}, nil
		}
	}
	return &CorrectnessResult{
		Blocks:        o.Blocks,
		AllRootsMatch: true,
		Detail:        fmt.Sprintf("%d blocks: OCC-WSI proposer, parallel validator and serial replay agree on every MPT root", o.Blocks),
	}, nil
}

// Render prints the correctness row.
func (r *CorrectnessResult) Render() string {
	status := "FAIL"
	if r.AllRootsMatch {
		status = "OK"
	}
	return fmt.Sprintf("§5.2 Correctness: %s — %s\n", status, r.Detail)
}

// --------------------------------------------------------------- Fig. 6 ----

// ProposerResult is the Fig. 6 sweep: proposer speedup over serial packing.
type ProposerResult struct {
	Threads     []int
	MeanSpeedup []float64
	PerBlock    map[int][]float64 // threads → per-block speedups
	Accelerated float64           // fraction of blocks faster than serial at max threads
	TotalAborts map[int]int
}

// RunProposer measures OCC-WSI block packing against serial packing
// (the Geth baseline) for each thread count. Only the execution phase counts
// on either side (see simValidatorTime).
func RunProposer(o Options) (*ProposerResult, error) {
	f, err := buildFixture(o)
	if err != nil {
		return nil, err
	}
	res := &ProposerResult{
		Threads:     o.Threads,
		PerBlock:    make(map[int][]float64),
		TotalAborts: make(map[int]int),
	}
	for b := range f.blocks {
		serialTime := f.costs[b].exec
		for _, threads := range o.Threads {
			var aborts int
			parTime := time.Duration(1<<62 - 1)
			for r := 0; r < o.Repeats; r++ {
				sp, err := simPropose(f.parents[b], f.parentHeaders[b], f.txs[b], threads, o.Params, o.Coinbase, false)
				if err != nil {
					return nil, err
				}
				if sp.parallel < parTime {
					parTime = sp.parallel
					aborts = sp.aborts
				}
				if sp.committed != len(f.txs[b]) {
					return nil, fmt.Errorf("sim proposer packed %d of %d", sp.committed, len(f.txs[b]))
				}
			}
			res.PerBlock[threads] = append(res.PerBlock[threads], float64(serialTime)/float64(parTime))
			res.TotalAborts[threads] += aborts
		}
	}
	for _, t := range o.Threads {
		res.MeanSpeedup = append(res.MeanSpeedup, mean(res.PerBlock[t]))
	}
	maxT := o.Threads[len(o.Threads)-1]
	acc := 0
	for _, s := range res.PerBlock[maxT] {
		if s > 1 {
			acc++
		}
	}
	res.Accelerated = float64(acc) / float64(len(res.PerBlock[maxT]))
	return res, nil
}

// Render prints the Fig. 6 series.
func (r *ProposerResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 6 — Proposer (OCC-WSI) speedup over serial packing\n")
	b.WriteString("  threads  mean-speedup  aborts\n")
	for i, t := range r.Threads {
		fmt.Fprintf(&b, "  %7d  %11.2fx  %6d\n", t, r.MeanSpeedup[i], r.TotalAborts[t])
	}
	fmt.Fprintf(&b, "  blocks accelerated at %d threads: %.1f%%\n",
		r.Threads[len(r.Threads)-1], 100*r.Accelerated)
	maxT := r.Threads[len(r.Threads)-1]
	h := stats.NewHistogram(stats.SpeedupEdges()...)
	for _, s := range r.PerBlock[maxT] {
		h.Add(s)
	}
	b.WriteString(h.Render(fmt.Sprintf("  speedup distribution @%d threads", maxT),
		func(e float64) string { return fmt.Sprintf("%.1fx", e) }))
	return b.String()
}

// -------------------------------------------------------------- Fig. 7 ----

// ValidatorResult is the Fig. 7(a)+(b) sweep: single-block validation
// speedup for BlockPilot and the OCC baseline.
type ValidatorResult struct {
	Threads          []int
	MeanSpeedup      []float64 // BlockPilot
	MeanSpeedupOCC   []float64 // Saraph-Herlihy style OCC
	PerBlock         map[int][]float64
	Accelerated      float64 // fraction of blocks accelerated at max threads
	MeanLargestRatio float64 // average largest-subgraph share (paper: 27.5%)
}

// RunValidator measures single-block parallel validation against serial
// validation for each thread count, for both BlockPilot and OCC.
func RunValidator(o Options) (*ValidatorResult, error) {
	f, err := buildFixture(o)
	if err != nil {
		return nil, err
	}
	res := &ValidatorResult{Threads: o.Threads, PerBlock: make(map[int][]float64)}
	occPerBlock := make(map[int][]float64)
	var ratios []float64

	for b := range f.blocks {
		costs, comps := f.costs[b], f.comps[b]
		dirty := speculateDirty(f.parents[b], f.blocks[b], o.Params)
		ratios = append(ratios, scheduler.ComputeStats(comps).LargestRatio)
		serial := simSerialTime(costs)
		for _, threads := range o.Threads {
			par := simValidatorTime(costs, scheduler.AssignLPT(comps, threads))
			res.PerBlock[threads] = append(res.PerBlock[threads], float64(serial)/float64(par))
			occ := simOCCTime(costs, dirty, threads)
			occPerBlock[threads] = append(occPerBlock[threads], float64(serial)/float64(occ))
		}
	}
	for _, t := range o.Threads {
		res.MeanSpeedup = append(res.MeanSpeedup, mean(res.PerBlock[t]))
		res.MeanSpeedupOCC = append(res.MeanSpeedupOCC, mean(occPerBlock[t]))
	}
	maxT := o.Threads[len(o.Threads)-1]
	acc := 0
	for _, s := range res.PerBlock[maxT] {
		if s > 1 {
			acc++
		}
	}
	res.Accelerated = float64(acc) / float64(len(res.PerBlock[maxT]))
	res.MeanLargestRatio = mean(ratios)
	return res, nil
}

// Render prints the Fig. 7(a) series and the Fig. 7(b) distribution.
func (r *ValidatorResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 7(a) — Validator single-block scalability\n")
	b.WriteString("  threads  BlockPilot      OCC\n")
	for i, t := range r.Threads {
		fmt.Fprintf(&b, "  %7d  %9.2fx  %6.2fx\n", t, r.MeanSpeedup[i], r.MeanSpeedupOCC[i])
	}
	maxT := r.Threads[len(r.Threads)-1]
	fmt.Fprintf(&b, "  blocks accelerated at %d threads: %.1f%% (paper: 99.8%%)\n", maxT, 100*r.Accelerated)
	fmt.Fprintf(&b, "  mean largest-subgraph share: %.1f%% (paper: 27.5%%)\n", 100*r.MeanLargestRatio)
	h := stats.NewHistogram(stats.SpeedupEdges()...)
	for _, s := range r.PerBlock[maxT] {
		h.Add(s)
	}
	b.WriteString(h.Render(fmt.Sprintf("Fig. 7(b) — speedup distribution @%d threads", maxT),
		func(e float64) string { return fmt.Sprintf("%.1fx", e) }))
	return b.String()
}

// -------------------------------------------------------------- Fig. 8 ----

// HotspotResult relates largest-subgraph share to speedup (Fig. 8).
type HotspotResult struct {
	// Buckets of largest-component ratio → mean speedup at 16 threads.
	BucketLo    []float64
	BucketHi    []float64
	MeanSpeedup []float64
	Count       []int
	MeanRatio   float64
	SweepDetail string
}

// RunHotspot sweeps hotspot concentration (swap ratio and pair count) to
// cover the ratio axis, then buckets block speedup by the largest-subgraph
// share — the Fig. 8 scatter reduced to its trend line.
func RunHotspot(o Options) (*HotspotResult, error) {
	threads := o.Threads[len(o.Threads)-1]
	type sample struct{ ratio, speedup float64 }
	var samples []sample

	// Sweep hotspot pressure to populate the whole ratio axis.
	sweeps := []struct {
		swap  float64
		pairs int
	}{
		{0.05, 10}, {0.15, 10}, {0.30, 10}, {0.30, 4}, {0.50, 2}, {0.70, 1}, {0.95, 1},
	}
	blocksPer := o.Blocks / len(sweeps)
	if blocksPer < 2 {
		blocksPer = 2
	}
	for _, sw := range sweeps {
		wl := o.Workload
		wl.SwapRatio = sw.swap
		wl.NumPairs = sw.pairs
		wl.NativeRatio = (1 - sw.swap) * 0.4
		wl.MixerRatio = (1 - sw.swap) * 0.2
		so := o
		so.Workload = wl
		so.Blocks = blocksPer
		f, err := buildFixture(so)
		if err != nil {
			return nil, err
		}
		for b := range f.blocks {
			costs, comps := f.costs[b], f.comps[b]
			sched := scheduler.AssignLPT(comps, threads)
			samples = append(samples, sample{
				ratio:   scheduler.ComputeStats(comps).LargestRatio,
				speedup: float64(simSerialTime(costs)) / float64(simValidatorTime(costs, sched)),
			})
		}
	}

	res := &HotspotResult{SweepDetail: fmt.Sprintf("%d blocks across %d hotspot mixes, %d threads", len(samples), len(sweeps), threads)}
	edges := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.01}
	var ratioSum float64
	for i := 0; i+1 < len(edges); i++ {
		lo, hi := edges[i], edges[i+1]
		var sp []float64
		for _, s := range samples {
			if s.ratio >= lo && s.ratio < hi {
				sp = append(sp, s.speedup)
			}
		}
		res.BucketLo = append(res.BucketLo, lo)
		res.BucketHi = append(res.BucketHi, hi)
		res.MeanSpeedup = append(res.MeanSpeedup, mean(sp))
		res.Count = append(res.Count, len(sp))
	}
	for _, s := range samples {
		ratioSum += s.ratio
	}
	res.MeanRatio = ratioSum / float64(len(samples))
	return res, nil
}

// Render prints the Fig. 8 trend.
func (r *HotspotResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — Hotspot effect: largest-subgraph share vs speedup\n")
	fmt.Fprintf(&b, "  (%s)\n", r.SweepDetail)
	b.WriteString("  subgraph-share   blocks   mean-speedup\n")
	for i := range r.BucketLo {
		if r.Count[i] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  [%3.0f%%, %3.0f%%)   %6d   %9.2fx\n",
			100*r.BucketLo[i], 100*r.BucketHi[i], r.Count[i], r.MeanSpeedup[i])
	}
	fmt.Fprintf(&b, "  mean largest-subgraph share across sweep: %.1f%%\n", 100*r.MeanRatio)
	return b.String()
}

// -------------------------------------------------------------- Fig. 9 ----

// PipelineResult is the Fig. 9 sweep: throughput speedup processing k
// same-height blocks through the pipeline with a fixed worker pool.
type PipelineResult struct {
	BlockCounts []int
	Speedup     []float64 // (k × serial single-block time) / pipeline time
	Workers     int
}

// RunPipeline derives the time of validating k sibling blocks (same height,
// shared parent) concurrently through the pipeline, k = 1..maxBlocks, over
// a shared pool of as many workers as the widest thread sweep point —
// mirroring the paper's multi-block experiment. The siblings are identical
// in cost, so one proposer-built block is measured and replicated.
func RunPipeline(o Options, maxBlocks int) (*PipelineResult, error) {
	workers := o.Threads[len(o.Threads)-1]
	g := workload.New(o.Workload)
	parent := g.GenesisState()
	p := node.New(node.Config{Genesis: parent, Params: o.Params, Threads: 8, Coinbase: o.Coinbase})
	defer p.Close()
	txs := g.NextBlockTxs()
	p.Pool.AddAll(txs)
	pres, err := p.Propose()
	if err != nil {
		return nil, err
	}
	if pres.Committed != len(txs) {
		return nil, fmt.Errorf("proposer packed %d of %d", pres.Committed, len(txs))
	}

	costs, err := measureBlockCosts(parent, pres.Block, o.Params, o.Repeats)
	if err != nil {
		return nil, err
	}
	sched := scheduler.AssignLPT(scheduler.BuildComponents(pres.Block.Profile, true), workers)
	// Fig. 9 compares whole-block processing: a serial validator pays
	// execution AND commit per block, while the pipeline overlaps
	// commits of different blocks with execution.
	serial := costs.exec + costs.commit
	res := &PipelineResult{Workers: workers}
	for k := 1; k <= maxBlocks; k++ {
		wall := simPipelineTime(costs, sched, k, workers)
		res.BlockCounts = append(res.BlockCounts, k)
		res.Speedup = append(res.Speedup, float64(k)*float64(serial)/float64(wall))
	}
	return res, nil
}

// Render prints the Fig. 9 series.
func (r *PipelineResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — Multi-block pipeline (%d shared workers)\n", r.Workers)
	b.WriteString("  concurrent-blocks  speedup\n")
	for i, k := range r.BlockCounts {
		fmt.Fprintf(&b, "  %17d  %6.2fx\n", k, r.Speedup[i])
	}
	return b.String()
}

// ------------------------------------------------------------ ablations ----

// AblationResult compares design alternatives on validation speedup.
type AblationResult struct {
	Name     string
	Variants []string
	Speedup  []float64
	Notes    []string
}

// RunSchedulingAblation compares gas-LPT against round-robin assignment.
func RunSchedulingAblation(o Options) (*AblationResult, error) {
	f, err := buildFixture(o)
	if err != nil {
		return nil, err
	}
	threads := o.Threads[len(o.Threads)-1]
	variants := []struct {
		name   string
		assign func([]scheduler.Component, int) *scheduler.Schedule
	}{
		{"gas-LPT (paper)", scheduler.AssignLPT},
		{"round-robin", scheduler.AssignRoundRobin},
	}
	res := &AblationResult{Name: "Scheduling policy (DESIGN.md §5.3)"}
	for _, v := range variants {
		var speedups []float64
		for b := range f.blocks {
			sched := v.assign(f.comps[b], threads)
			speedups = append(speedups, float64(simSerialTime(f.costs[b]))/float64(simValidatorTime(f.costs[b], sched)))
		}
		res.Variants = append(res.Variants, v.name)
		res.Speedup = append(res.Speedup, mean(speedups))
		res.Notes = append(res.Notes, fmt.Sprintf("%d threads", threads))
	}
	return res, nil
}

// RunGranularityAblation compares account-level against slot-level conflict
// detection.
func RunGranularityAblation(o Options) (*AblationResult, error) {
	f, err := buildFixture(o)
	if err != nil {
		return nil, err
	}
	threads := o.Threads[len(o.Threads)-1]
	res := &AblationResult{Name: "Conflict granularity (DESIGN.md §5.1)"}
	for _, accountLevel := range []bool{true, false} {
		var speedups []float64
		var comps []float64
		for b := range f.blocks {
			cc := scheduler.BuildComponents(f.blocks[b].Profile, accountLevel)
			sched := scheduler.AssignLPT(cc, threads)
			speedups = append(speedups, float64(simSerialTime(f.costs[b]))/float64(simValidatorTime(f.costs[b], sched)))
			comps = append(comps, float64(len(cc)))
		}
		name := "account-level (paper)"
		if !accountLevel {
			name = "slot-level"
		}
		res.Variants = append(res.Variants, name)
		res.Speedup = append(res.Speedup, mean(speedups))
		res.Notes = append(res.Notes, fmt.Sprintf("avg %.1f components/block", mean(comps)))
	}
	return res, nil
}

// RunProposerKeysAblation compares the OCC-WSI reserve-table granularity:
// account+slot keys (paper) against account-only keys. Coarser keys turn
// distinct-slot accesses of one contract into conflicts, inflating aborts.
func RunProposerKeysAblation(o Options) (*AblationResult, error) {
	f, err := buildFixture(o)
	if err != nil {
		return nil, err
	}
	threads := o.Threads[len(o.Threads)-1]
	res := &AblationResult{Name: "Proposer reserve-table granularity (DESIGN.md §5.1)"}
	for _, coarse := range []bool{false, true} {
		var speedups []float64
		totalAborts := 0
		for b := range f.blocks {
			sp, err := simPropose(f.parents[b], f.parentHeaders[b], f.txs[b], threads, o.Params, o.Coinbase, coarse)
			if err != nil {
				return nil, err
			}
			speedups = append(speedups, float64(f.costs[b].exec)/float64(sp.parallel))
			totalAborts += sp.aborts
		}
		name := "account+slot (paper)"
		if coarse {
			name = "account-only"
		}
		res.Variants = append(res.Variants, name)
		res.Speedup = append(res.Speedup, mean(speedups))
		res.Notes = append(res.Notes, fmt.Sprintf("%d aborts over %d blocks, %d threads", totalAborts, o.Blocks, threads))
	}
	return res, nil
}

// Render prints an ablation comparison.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — %s\n", r.Name)
	for i := range r.Variants {
		fmt.Fprintf(&b, "  %-22s %6.2fx  (%s)\n", r.Variants[i], r.Speedup[i], r.Notes[i])
	}
	return b.String()
}
