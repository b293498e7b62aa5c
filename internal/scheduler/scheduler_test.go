package scheduler

import (
	"math/rand"
	"reflect"
	"testing"

	"blockpilot/internal/types"
)

// profileOf builds a BlockProfile from compact access descriptions.
type txAccess struct {
	reads  []types.StateKey
	writes []types.StateKey
	gas    uint64
}

func mkProfile(txs ...txAccess) *types.BlockProfile {
	bp := &types.BlockProfile{}
	for _, a := range txs {
		s := types.NewAccessSet()
		for _, k := range a.reads {
			s.NoteRead(k, 0)
		}
		for _, k := range a.writes {
			s.NoteWrite(k)
		}
		gas := a.gas
		if gas == 0 {
			gas = 21000
		}
		bp.Txs = append(bp.Txs, types.ProfileFromAccessSet(s, gas))
	}
	return bp
}

func acct(b byte) types.StateKey { return types.AccountKey(types.BytesToAddress([]byte{b})) }
func slot(a, s byte) types.StateKey {
	return types.StorageKey(types.BytesToAddress([]byte{a}), types.BytesToHash([]byte{s}))
}

func TestComponentsBasicChains(t *testing.T) {
	// tx0 and tx2 write the same key; tx1 independent.
	bp := mkProfile(
		txAccess{writes: []types.StateKey{acct(1)}},
		txAccess{writes: []types.StateKey{acct(2)}},
		txAccess{writes: []types.StateKey{acct(1)}},
	)
	comps := BuildComponents(bp, true)
	if len(comps) != 2 {
		t.Fatalf("%d components", len(comps))
	}
	// Component membership: {0,2} and {1}.
	var withTwo *Component
	for i := range comps {
		if len(comps[i].TxIndices) == 2 {
			withTwo = &comps[i]
		}
	}
	if withTwo == nil || withTwo.TxIndices[0] != 0 || withTwo.TxIndices[1] != 2 {
		t.Fatalf("components = %+v", comps)
	}
}

func TestReadReadNotConflict(t *testing.T) {
	shared := acct(9)
	bp := mkProfile(
		txAccess{reads: []types.StateKey{shared}, writes: []types.StateKey{acct(1)}},
		txAccess{reads: []types.StateKey{shared}, writes: []types.StateKey{acct(2)}},
	)
	comps := BuildComponents(bp, true)
	if len(comps) != 2 {
		t.Fatalf("read-read sharing merged components: %+v", comps)
	}
}

func TestWriteReadConflict(t *testing.T) {
	bp := mkProfile(
		txAccess{writes: []types.StateKey{acct(1)}},
		txAccess{reads: []types.StateKey{acct(1)}},
	)
	if comps := BuildComponents(bp, true); len(comps) != 1 {
		t.Fatalf("write-read not merged: %+v", comps)
	}
}

func TestGranularity(t *testing.T) {
	// Two txs writing different slots of one contract.
	bp := mkProfile(
		txAccess{writes: []types.StateKey{slot(1, 1)}},
		txAccess{writes: []types.StateKey{slot(1, 2)}},
	)
	if comps := BuildComponents(bp, true); len(comps) != 1 {
		t.Fatal("account-level should merge different slots of one account")
	}
	if comps := BuildComponents(bp, false); len(comps) != 2 {
		t.Fatal("slot-level should keep different slots apart")
	}
}

func TestTransitivity(t *testing.T) {
	// 0-1 conflict on A, 1-2 conflict on B → all one component.
	bp := mkProfile(
		txAccess{writes: []types.StateKey{acct(1)}},
		txAccess{writes: []types.StateKey{acct(1), acct(2)}},
		txAccess{writes: []types.StateKey{acct(2)}},
	)
	if comps := BuildComponents(bp, true); len(comps) != 1 {
		t.Fatalf("transitive conflicts split: %+v", comps)
	}
}

func TestComponentsArePartition(t *testing.T) {
	// Random-ish profile; check every tx appears exactly once.
	var txs []txAccess
	for i := 0; i < 50; i++ {
		txs = append(txs, txAccess{
			reads:  []types.StateKey{acct(byte(i % 7))},
			writes: []types.StateKey{acct(byte(i % 5)), slot(byte(i%3), byte(i%4))},
			gas:    uint64(1000 + i),
		})
	}
	bp := mkProfile(txs...)
	comps := BuildComponents(bp, false)
	seen := make(map[int]bool)
	var gasTotal uint64
	for _, c := range comps {
		for _, i := range c.TxIndices {
			if seen[i] {
				t.Fatalf("tx %d in two components", i)
			}
			seen[i] = true
		}
		gasTotal += c.Gas
	}
	if len(seen) != 50 {
		t.Fatalf("partition covers %d of 50", len(seen))
	}
	st := ComputeStats(comps)
	if st.TxCount != 50 || st.TotalGas != gasTotal {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoCrossComponentConflicts(t *testing.T) {
	// Property: after partitioning, no write key is shared across components
	// with any touch in another component.
	var txs []txAccess
	for i := 0; i < 60; i++ {
		txs = append(txs, txAccess{
			reads:  []types.StateKey{slot(byte(i%11), 0)},
			writes: []types.StateKey{slot(byte(i%6), byte(i%2))},
		})
	}
	bp := mkProfile(txs...)
	comps := BuildComponents(bp, false)
	compOf := make(map[int]int)
	for ci, c := range comps {
		for _, i := range c.TxIndices {
			compOf[i] = ci
		}
	}
	for i := range bp.Txs {
		for j := range bp.Txs {
			if i >= j || compOf[i] == compOf[j] {
				continue
			}
			if conflicts(bp.Txs[i], bp.Txs[j]) || conflicts(bp.Txs[j], bp.Txs[i]) {
				t.Fatalf("txs %d and %d conflict across components", i, j)
			}
		}
	}
}

// conflicts reports whether p writes a key q reads or writes (slot level).
func conflicts(p, q *types.TxProfile) bool {
	for _, w := range p.Writes {
		for _, k := range q.Writes {
			if k == w {
				return true
			}
		}
		for _, r := range q.Reads {
			if r.Key == w {
				return true
			}
		}
	}
	return false
}

func TestLPTBalancesGas(t *testing.T) {
	comps := []Component{
		{TxIndices: []int{0}, Gas: 100},
		{TxIndices: []int{1}, Gas: 90},
		{TxIndices: []int{2}, Gas: 50},
		{TxIndices: []int{3}, Gas: 40},
		{TxIndices: []int{4}, Gas: 10},
	}
	s := AssignLPT(comps, 2)
	// LPT: 100 | 90 → {100} {90}; 50 → {90,50}; 40 → {100,40}; 10 → {100,40,10}
	if s.ThreadGas[0]+s.ThreadGas[1] != 290 {
		t.Fatalf("gas lost: %+v", s.ThreadGas)
	}
	hi, lo := s.ThreadGas[0], s.ThreadGas[1]
	if hi < lo {
		hi, lo = lo, hi
	}
	if hi != 150 || lo != 140 {
		t.Fatalf("LPT balance = %d/%d, want 150/140", hi, lo)
	}
}

func TestThreadTxsInBlockOrder(t *testing.T) {
	comps := []Component{
		{TxIndices: []int{5, 9}, Gas: 10},
		{TxIndices: []int{1, 7}, Gas: 10},
		{TxIndices: []int{2}, Gas: 5},
	}
	for _, s := range []*Schedule{AssignLPT(comps, 2), AssignRoundRobin(comps, 2)} {
		for _, txs := range s.ThreadTxs {
			for i := 1; i < len(txs); i++ {
				if txs[i-1] >= txs[i] {
					t.Fatalf("thread txs out of block order: %v", txs)
				}
			}
		}
	}
}

func TestAssignCoversAllTxs(t *testing.T) {
	comps := []Component{
		{TxIndices: []int{0, 3}, Gas: 7},
		{TxIndices: []int{1}, Gas: 3},
		{TxIndices: []int{2, 4, 5}, Gas: 9},
	}
	for threads := 1; threads <= 5; threads++ {
		s := AssignLPT(comps, threads)
		seen := map[int]bool{}
		for _, txs := range s.ThreadTxs {
			for _, i := range txs {
				if seen[i] {
					t.Fatalf("tx %d scheduled twice", i)
				}
				seen[i] = true
			}
		}
		if len(seen) != 6 {
			t.Fatalf("threads=%d: scheduled %d of 6", threads, len(seen))
		}
	}
}

func TestStats(t *testing.T) {
	comps := []Component{
		{TxIndices: []int{0, 1, 2}, Gas: 300},
		{TxIndices: []int{3}, Gas: 700},
	}
	st := ComputeStats(comps)
	if st.LargestComponent != 3 || st.LargestRatio != 0.75 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CriticalPathGas != 700 || st.ParallelismUpper != 1000.0/700.0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyProfile(t *testing.T) {
	comps := BuildComponents(&types.BlockProfile{}, true)
	if len(comps) != 0 {
		t.Fatal("empty profile produced components")
	}
	s := AssignLPT(comps, 4)
	st := ComputeStats(comps)
	if st.TxCount != 0 || len(s.ThreadTxs) != 4 {
		t.Fatal("empty schedule malformed")
	}
}

// randomProfile builds a block profile with nTxs transactions over a pool of
// nAccounts accounts: each tx reads/writes a few random account and storage
// keys, with a handful of hot keys to force multi-tx components.
func randomProfile(rng *rand.Rand, nTxs, nAccounts int) *types.BlockProfile {
	bp := &types.BlockProfile{}
	for i := 0; i < nTxs; i++ {
		s := types.NewAccessSet()
		touches := 1 + rng.Intn(4)
		for t := 0; t < touches; t++ {
			var a byte
			if rng.Intn(4) == 0 {
				a = byte(1 + rng.Intn(3)) // hot account
			} else {
				a = byte(1 + rng.Intn(nAccounts))
			}
			addr := types.BytesToAddress([]byte{a})
			var k types.StateKey
			if rng.Intn(2) == 0 {
				k = types.AccountKey(addr)
			} else {
				k = types.StorageKey(addr, types.BytesToHash([]byte{byte(rng.Intn(6))}))
			}
			if rng.Intn(3) == 0 {
				s.NoteWrite(k)
			} else {
				s.NoteRead(k, 0)
			}
		}
		bp.Txs = append(bp.Txs, types.ProfileFromAccessSet(s, uint64(21000+rng.Intn(200000))))
	}
	return bp
}

// TestBuildComponentsDeterministic: the builder unions in map-iteration
// order, which Go randomizes per run; the components (their order, their
// TxIndices, their gas) must not depend on it — schedules, and through them
// the simulator's digests, are a function of the profile alone.
func TestBuildComponentsDeterministic(t *testing.T) {
	bp := randomProfile(rand.New(rand.NewSource(11)), 300, 30)
	for _, accountLevel := range []bool{true, false} {
		ref := BuildComponents(bp, accountLevel)
		for i := 0; i < 20; i++ {
			if got := BuildComponents(bp, accountLevel); !reflect.DeepEqual(ref, got) {
				t.Fatalf("accountLevel=%v: build %d diverged from build 0", accountLevel, i)
			}
		}
	}
}

func BenchmarkBuildComponents(b *testing.B) {
	bp := randomProfile(rand.New(rand.NewSource(5)), 400, 60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildComponents(bp, true)
	}
}
