package bench

import (
	"testing"
	"time"

	"blockpilot/internal/scheduler"
	"blockpilot/internal/types"
)

// synthetic costs: n txs of 1ms each, zero overheads except where set.
func synthCosts(n int, commit time.Duration) *blockCosts {
	c := &blockCosts{commit: commit}
	for i := 0; i < n; i++ {
		c.perTx = append(c.perTx, time.Millisecond)
		c.exec += time.Millisecond
	}
	return c
}

// singles builds n independent one-tx components.
func singles(n int) []scheduler.Component {
	out := make([]scheduler.Component, n)
	for i := range out {
		out[i] = scheduler.Component{TxIndices: []int{i}, Gas: 1000}
	}
	return out
}

func TestSimValidatorPerfectParallelism(t *testing.T) {
	costs := synthCosts(16, 0)
	sched := scheduler.AssignLPT(singles(16), 16)
	par := simValidatorTime(costs, sched)
	if par != time.Millisecond {
		t.Fatalf("16 independent txs on 16 threads = %v, want 1ms", par)
	}
	if simSerialTime(costs) != 16*time.Millisecond {
		t.Fatal("serial time")
	}
}

func TestSimValidatorCriticalPath(t *testing.T) {
	// One 8-tx chain + 8 singles on 16 threads: makespan = the chain.
	comps := append(singles(8), scheduler.Component{
		TxIndices: []int{8, 9, 10, 11, 12, 13, 14, 15}, Gas: 8000,
	})
	costs := synthCosts(16, 0)
	par := simValidatorTime(costs, scheduler.AssignLPT(comps, 16))
	if par != 8*time.Millisecond {
		t.Fatalf("critical path = %v, want 8ms", par)
	}
}

func TestSimOCCDirtySerializes(t *testing.T) {
	costs := synthCosts(16, 0)
	clean := make([]bool, 16)
	allClean := simOCCTime(costs, clean, 16)
	if allClean != time.Millisecond {
		t.Fatalf("clean OCC = %v", allClean)
	}
	dirty := make([]bool, 16)
	for i := 8; i < 16; i++ {
		dirty[i] = true
	}
	half := simOCCTime(costs, dirty, 16)
	// phase1 (1ms, all speculated) + 8ms serial re-execution.
	if half != 9*time.Millisecond {
		t.Fatalf("half-dirty OCC = %v, want 9ms", half)
	}
}

// speculateBlock builds one block of the mutated small workload and returns
// its transactions with their speculateDirty flags.
func speculateBlock(t *testing.T, mutate func(*Options)) ([]*types.Transaction, []bool) {
	t.Helper()
	o := smallOptions()
	o.Blocks = 1
	o.Workload.TxPerBlock = 100
	mutate(&o)
	f, err := buildFixture(o)
	if err != nil {
		t.Fatal(err)
	}
	return f.blocks[0].Txs, speculateDirty(f.parents[0], f.blocks[0], o.Params)
}

// TestSpeculateDirtyNonceChain: against the block-start state only the
// first transaction of each sender has a valid nonce, so every successor's
// speculation fails and must be marked dirty.
func TestSpeculateDirtyNonceChain(t *testing.T) {
	txs, dirty := speculateBlock(t, func(o *Options) {
		o.Workload.NumAccounts = 8 // heavy sender reuse → nonce chains
		o.Workload.TxPerBlock = 60
	})
	seen := map[types.Address]bool{}
	successors := 0
	for i, tx := range txs {
		if seen[tx.From] {
			successors++
			if !dirty[i] {
				t.Fatalf("tx %d follows its sender's earlier tx but is clean", i)
			}
		}
		seen[tx.From] = true
	}
	if successors == 0 {
		t.Fatal("workload produced no sender nonce chain")
	}
}

func TestSpeculateDirtyGrowsWithContention(t *testing.T) {
	count := func(mutate func(*Options)) int {
		_, dirty := speculateBlock(t, mutate)
		n := 0
		for _, d := range dirty {
			if d {
				n++
			}
		}
		return n
	}
	cold := count(func(o *Options) {
		o.Workload.SwapRatio = 0.0
		o.Workload.MixerRatio = 0.6
	})
	hot := count(func(o *Options) {
		o.Workload.NumPairs = 1
		o.Workload.SwapRatio = 0.9
		o.Workload.NativeRatio = 0.05
		o.Workload.MixerRatio = 0.05
	})
	if hot <= cold {
		t.Fatalf("contended block should have more dirty txs: %d (hot) vs %d (cold)", hot, cold)
	}
}

func TestSimPipelineProperties(t *testing.T) {
	costs := synthCosts(32, 2*time.Millisecond)
	sched := scheduler.AssignLPT(singles(32), 16)
	var prev time.Duration
	for k := 1; k <= 8; k++ {
		wall := simPipelineTime(costs, sched, k, 16)
		if wall < prev {
			t.Fatalf("wall(k=%d)=%v < wall(k=%d)=%v — pipeline time must not shrink", k, wall, k-1, prev)
		}
		prev = wall
		// Work conservation: wall ≥ total work / workers.
		total := time.Duration(k) * (costs.exec + costs.commit)
		if wall < total/16 {
			t.Fatalf("k=%d: wall %v below work bound %v", k, wall, total/16)
		}
		// Throughput speedup never exceeds the worker count.
		speedup := float64(k) * float64(costs.exec+costs.commit) / float64(wall)
		if speedup > 16.0+1e-9 {
			t.Fatalf("k=%d: speedup %.2f exceeds worker count", k, speedup)
		}
	}
}

func TestSimPipelineSingleBlockMatchesValidatorPlusCommit(t *testing.T) {
	costs := synthCosts(16, 3*time.Millisecond)
	sched := scheduler.AssignLPT(singles(16), 16)
	wall := simPipelineTime(costs, sched, 1, 16)
	want := simValidatorTime(costs, sched) + costs.commit
	if wall != want {
		t.Fatalf("k=1 wall %v, want %v", wall, want)
	}
}
