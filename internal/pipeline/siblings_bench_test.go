package pipeline

import (
	"math/rand"
	"runtime"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// siblingPairs are the benchmark's sibling pairs on one genesis: each pair
// is two proposals on the genesis block, as the `forks` workload's rounds
// are two proposals on one parent.
type siblingPairs struct {
	genesis *state.Snapshot
	params  chain.Params
	pairs   [][2][]byte // wire encodings; each iteration validates a fresh decode
}

// makeSiblingPairs proposes n pairs over the mix cfg at the given thread
// count. differ is the share of the second proposal's pool that the first
// proposer never saw: that share of the round's transactions is withheld
// from it and replaced by transactions drawn from an independent stream.
func makeSiblingPairs(tb testing.TB, cfg workload.Config, n, threads int, differ float64) *siblingPairs {
	tb.Helper()
	params := chain.DefaultParams()
	var sp *siblingPairs
	for k := 0; k < n; k++ {
		// A fresh stream per pair: every pair sits on genesis, so every
		// sender's first transaction carries nonce 0.
		cfg.Seed = int64(k + 1)
		g := workload.New(cfg)
		if sp == nil {
			sp = &siblingPairs{genesis: g.GenesisState(), params: params}
		}
		txs := g.NextBlockTxs()
		other := txs
		if differ > 0 {
			cfg2 := cfg
			cfg2.Seed = -cfg.Seed
			extra := workload.New(cfg2).NextBlockTxs()
			rng := rand.New(rand.NewSource(cfg.Seed))
			other = nil
			for i, tx := range txs {
				if rng.Float64() < differ {
					tx = extra[i]
				}
				other = append(other, tx)
			}
		}
		gh := &chain.NewChain(sp.genesis, params).Genesis().Header
		var pair [2][]byte
		for side, pool := range [][]*types.Transaction{txs, other} {
			mp := mempool.New()
			mp.AddAll(pool)
			cb := coinbase
			cb[19] = byte(side)
			res, err := core.Propose(sp.genesis, gh, mp, core.ProposerConfig{Threads: threads, Coinbase: cb, Time: 1}, params)
			if err != nil {
				tb.Fatal(err)
			}
			pair[side] = res.Block.Encode()
		}
		sp.pairs = append(sp.pairs, pair)
	}
	return sp
}

// BenchmarkPipelineSiblings validates one sibling pair per iteration through
// a pipeline on the shared worker pool — the `forks` workload's validator
// phase — and reports the share of the pair's transactions the follower took
// from the leader (reused/tx, over both blocks' transactions). Sub-benchmarks:
// the `mainnet` mix, the `hotspot` mix (one giant component: the follower's
// wait can idle a worker while the leader runs one long lane), and the
// `mainnet` mix with a second proposer that saw 30 % different transactions.
func BenchmarkPipelineSiblings(b *testing.B) {
	hotspot := workload.Default()
	hotspot.SwapRatio, hotspot.NumPairs, hotspot.NativeRatio, hotspot.MixerRatio = 0.70, 1, 0.12, 0.06
	threads := min(runtime.GOMAXPROCS(0), 4)
	for _, bc := range []struct {
		name   string
		mix    workload.Config
		differ float64
	}{
		{"mainnet", workload.Default(), 0},
		{"hotspot", hotspot, 0},
		{"mainnet_differ30", workload.Default(), 0.30},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sp := makeSiblingPairs(b, bc.mix, 8, threads, bc.differ)
			pool := NewWorkerPool(threads)
			defer pool.Close()
			var reused, txs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var pair [2]*types.Block
				for side, enc := range sp.pairs[i%len(sp.pairs)] {
					blk, err := types.DecodeBlock(enc)
					if err != nil {
						b.Fatal(err)
					}
					pair[side] = blk
				}
				c := chain.NewChain(sp.genesis, sp.params)
				p := New(c, validator.DefaultConfig(threads), pool)
				b.StartTimer()
				p.Submit(pair[0])
				p.Submit(pair[1])
				for range pair {
					out := <-p.Results()
					if out.Err != nil {
						b.Fatal(out.Err)
					}
					reused += out.Result.Reused
					txs += len(out.Block.Txs)
				}
				b.StopTimer()
				p.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(reused)/float64(txs), "reused/tx")
		})
	}
}
