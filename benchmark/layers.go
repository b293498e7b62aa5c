package main

import (
	"fmt"
	"os"
	"time"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/crypto"
	"blockpilot/internal/mempool"
	"blockpilot/internal/scheduler"
	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
)

// layerSamples is what phase B measured by replaying retained (parent
// state, block, txs) triples through single layers, off the round clock.
type layerSamples struct {
	blocks, txs int
	gas         uint64

	serial      []time.Duration // chain.VerifyBlockSerial, per block
	parallel    []time.Duration // validator.ValidateParallel alone, per block
	forkSpeedup []float64       // per round: Σ sibling parallel walls ÷ phase-A sibling window
	evmBlock    []time.Duration // ApplyTransaction loop, per block
	evmTx       []time.Duration // … per transaction
	commitRoot  []time.Duration // chain.CommitAndRoot
	stateCommit []time.Duration // Snapshot.CommitParallel
	rootHash    []time.Duration // Snapshot.RootParallel

	schedBuild []time.Duration // BuildComponents + AssignLPT
	components []float64
	largestPct []float64
	imbalance  []float64

	readKeys int
	readTime time.Duration

	encode, decode, txRoot time.Duration
	wireBytes              int

	admit, cycle time.Duration // mempool AddAll; AddAll → PopBatch → DoneBatch
	poolTxs      int

	mvPropose          []time.Duration
	mvReexec, mvEstHit int64
	mvTxs              int
	adPropose          []time.Duration
	adAborts, adTxs    int
	adLaneShare        []float64
}

// replay is phase B. Every retained block must also pass the serial
// baseline validator — the traced run's extra output check.
func (t *tracer) replay(c *cluster, res *driverResult) error {
	ls := &layerSamples{}
	t.layers = ls
	ctrl := adaptive.New(adaptive.Config{}) // one controller across blocks: its window is the point
	for i := range res.samples {
		rs := &res.samples[i]
		if rs.parent == nil {
			continue
		}
		var siblings time.Duration
		for _, blk := range rs.decoded {
			d, err := ls.replayBlock(c, rs.parent, rs.parentHeader, blk)
			if err != nil {
				res.replayFailed++
				fmt.Fprintf(os.Stderr, "replay: block %d: %v\n", blk.Number(), err)
				continue
			}
			siblings += d
		}
		if rs.window > 0 {
			ls.forkSpeedup = append(ls.forkSpeedup, float64(siblings)/float64(rs.window))
		}
		ls.replayMempool(rs.txs)
		if err := ls.replayEngines(c, rs, ctrl); err != nil {
			res.replayFailed++
			fmt.Fprintf(os.Stderr, "replay: round engines: %v\n", err)
		}
		// Let the retained state go: phase B is the only reader.
		rs.parent, rs.parentHeader, rs.txs, rs.decoded = nil, nil, nil, nil
	}
	return nil
}

// replayBlock pushes one block through chain, validator, evm, state, trie,
// scheduler and types in isolation. It returns the single-block
// ValidateParallel wall.
func (ls *layerSamples) replayBlock(c *cluster, parent *state.Snapshot, parentHeader *types.Header, blk *types.Block) (time.Duration, error) {
	params := c.params

	t0 := time.Now()
	ser, err := chain.VerifyBlockSerial(parent, parentHeader, blk, params)
	if err != nil {
		return 0, fmt.Errorf("serial verify: %w", err)
	}
	ls.serial = append(ls.serial, time.Since(t0))
	ls.blocks++
	ls.txs += len(blk.Txs)
	ls.gas += blk.Header.GasUsed

	t0 = time.Now()
	if _, err := validator.ValidateParallel(parent, parentHeader, blk, validator.DefaultConfig(c.opt.threads), params); err != nil {
		return 0, fmt.Errorf("parallel validate: %w", err)
	}
	par := time.Since(t0)
	ls.parallel = append(ls.parallel, par)

	// evm: the bare ApplyTransaction loop, no commit, no root.
	bc := chain.BlockContextFor(&blk.Header, params.ChainID)
	accum := state.NewMemory(parent)
	blockStart := time.Now()
	for i, tx := range blk.Txs {
		t0 = time.Now()
		o := state.NewOverlay(accum, types.Version(i))
		if _, _, err := chain.ApplyTransaction(o, tx, bc); err != nil {
			return 0, fmt.Errorf("evm replay tx %d: %w", i, err)
		}
		accum.ApplyChangeSet(o.ChangeSet())
		ls.evmTx = append(ls.evmTx, time.Since(t0))
	}
	ls.evmBlock = append(ls.evmBlock, time.Since(blockStart))

	// chain / state / trie: the commit tail, whole and split.
	t0 = time.Now()
	chain.CommitAndRoot(parent, ser.Changes, params, blk.Number())
	ls.commitRoot = append(ls.commitRoot, time.Since(t0))
	w := params.ResolveCommitWorkers()
	t0 = time.Now()
	post := parent.CommitParallel(ser.Changes, w)
	t1 := time.Now()
	post.RootParallel(w)
	ls.stateCommit = append(ls.stateCommit, t1.Sub(t0))
	ls.rootHash = append(ls.rootHash, time.Since(t1))

	// scheduler: graph build + LPT on the shipped profile.
	t0 = time.Now()
	comps := scheduler.BuildComponents(blk.Profile, true)
	sched := scheduler.AssignLPT(comps, c.opt.threads)
	ls.schedBuild = append(ls.schedBuild, time.Since(t0))
	st := scheduler.ComputeStats(comps)
	ls.components = append(ls.components, float64(st.ComponentCount))
	ls.largestPct = append(ls.largestPct, st.LargestRatio*100)
	var maxGas, total uint64
	for _, g := range sched.ThreadGas {
		total += g
		maxGas = max(maxGas, g)
	}
	if total > 0 {
		ls.imbalance = append(ls.imbalance, float64(maxGas)*float64(len(sched.ThreadGas))/float64(total))
	}

	// state: the profile's read set against the parent snapshot.
	t0 = time.Now()
	for _, tp := range blk.Profile.Txs {
		for _, kv := range tp.Reads {
			if kv.Key.Kind == types.KeyStorage {
				parent.Storage(kv.Key.Addr, kv.Key.Slot)
			} else {
				parent.Nonce(kv.Key.Addr)
			}
			ls.readKeys++
		}
	}
	ls.readTime += time.Since(t0)

	// types: wire encode / decode and the tx root.
	t0 = time.Now()
	enc := blk.Encode()
	t1 = time.Now()
	if _, err := types.DecodeBlock(enc); err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	t2 := time.Now()
	types.ComputeTxRoot(blk.Txs)
	ls.encode += t1.Sub(t0)
	ls.decode += t2.Sub(t1)
	ls.txRoot += time.Since(t2)
	ls.wireBytes += len(enc)
	return par, nil
}

// replayMempool times admission alone and a full AddAll → PopBatch →
// DoneBatch cycle with no execution in between.
func (ls *layerSamples) replayMempool(txs []*types.Transaction) {
	t0 := time.Now()
	mempool.New().AddAll(txs)
	ls.admit += time.Since(t0)

	t0 = time.Now()
	pool := mempool.New()
	pool.AddAll(txs)
	for {
		batch := pool.PopBatch(core.DefaultPopBatch)
		if len(batch) == 0 {
			break
		}
		pool.DoneBatch(batch)
	}
	ls.cycle += time.Since(t0)
	ls.poolTxs += len(txs)
}

// replayEngines packs the round's transactions on the same parent with the
// two non-default proposer paths (mv-stm, and occ-wsi under the adaptive
// controller) and serial-verifies what they produce before discarding it.
func (ls *layerSamples) replayEngines(c *cluster, rs *roundSample, ctrl *adaptive.Controller) error {
	propose := func(cfg core.ProposerConfig) (*core.ProposeResult, time.Duration, error) {
		pool := mempool.New()
		pool.AddAll(rs.txs)
		cfg.Threads = c.opt.threads
		cfg.Coinbase = types.HexToAddress("0xABC0")
		cfg.Time = rs.parentHeader.Number + 1
		t0 := time.Now()
		res, err := core.Propose(rs.parent, rs.parentHeader, pool, cfg, c.params)
		d := time.Since(t0)
		if err != nil {
			return nil, 0, err
		}
		if _, err := chain.VerifyBlockSerial(rs.parent, rs.parentHeader, res.Block, c.params); err != nil {
			return nil, 0, fmt.Errorf("engine %q produced an invalid block: %w", cfg.Engine, err)
		}
		return res, d, nil
	}

	re0, eh0 := telemetry.MVReexecutions.Value(), telemetry.MVEstimateHits.Value()
	res, d, err := propose(core.ProposerConfig{Engine: core.EngineMVSTM})
	if err != nil {
		return err
	}
	ls.mvPropose = append(ls.mvPropose, d)
	ls.mvReexec += telemetry.MVReexecutions.Value() - re0
	ls.mvEstHit += telemetry.MVEstimateHits.Value() - eh0
	ls.mvTxs += res.Committed

	res, d, err = propose(core.ProposerConfig{Engine: core.EngineOCCWSI, Adaptive: ctrl})
	if err != nil {
		return err
	}
	ls.adPropose = append(ls.adPropose, d)
	ls.adAborts += res.Aborts
	ls.adTxs += res.Committed
	ls.adLaneShare = append(ls.adLaneShare, telemetry.AdaptiveLaneOccupancy.Value())
	return nil
}

// keccakNs times crypto.Keccak256 on an n-byte input over a ≥100 ms loop.
func keccakNs(n int) float64 {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)
	}
	var sink byte
	iters := 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i := 0; i < 1000; i++ {
			buf[0] = sink
			sink ^= crypto.Keccak256(buf)[0]
		}
		iters += 1000
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}
