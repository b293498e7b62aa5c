package evm

import (
	"math/big"
	"sync"
	"testing"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// TestTruncatedPushImmediates: PUSHn with only k < n immediate bytes before
// the end of the code pushes those k bytes followed by n-k zero bytes, read
// as one big-endian n-byte number. The expected words are computed here with
// math/big, independently of the decoder.
func TestTruncatedPushImmediates(t *testing.T) {
	imm := make([]byte, 32)
	for i := range imm {
		imm[i] = byte(0xA0 + i) // non-zero and distinct, so order shows
	}
	for n := 1; n <= 32; n++ {
		for k := 0; k <= n; k++ {
			code := append([]byte{byte(JUMPDEST), byte(PUSH1) + byte(n-1)}, imm[:k]...)
			an := analyse(code)
			if len(an.pushes) != 1 || an.slot[1] != 0 {
				t.Fatalf("PUSH%d with %d bytes: pushes=%d slot=%d", n, k, len(an.pushes), an.slot[1])
			}
			want := new(big.Int).SetBytes(imm[:k])
			want.Lsh(want, uint(8*(n-k)))
			if got := an.pushes[0].ToBig(); got.Cmp(want) != 0 {
				t.Fatalf("PUSH%d with %d bytes = %x, want %x", n, k, got, want)
			}
			// Executing it charges one PUSH and stops cleanly past the end.
			f := &frame{code: code, an: an, gas: 100, mem: newMemory()}
			if _, err := New(nil, BlockContext{}, TxContext{}).run(f); err != nil || f.gas != 100-GasJumpdest-GasFastestStep {
				t.Fatalf("PUSH%d with %d bytes: err %v, gas left %d", n, k, err, f.gas)
			}
		}
	}
}

// deployDistinct returns a base state with n contracts of pairwise distinct
// code (PUSH2 i, then return it) and their addresses.
func deployDistinct(n int) (state.Reader, []types.Address) {
	b := state.NewGenesisBuilder()
	addrs := make([]types.Address, n)
	for i := range addrs {
		addrs[i] = types.BytesToAddress([]byte{0xc0, byte(i >> 8), byte(i)})
		code := []byte{byte(PUSH1 + 1), byte(i >> 8), byte(i),
			byte(PUSH1), 0, byte(MSTORE), byte(PUSH1), 32, byte(PUSH1), 0, byte(RETURN)}
		b.AddContract(addrs[i], uint256.NewInt(0), code, nil)
	}
	return b.Build(), addrs
}

func callWord(t *testing.T, base state.Reader, addr types.Address) uint64 {
	t.Helper()
	e := New(state.NewOverlay(base, 0), BlockContext{}, TxContext{})
	ret, _, err := e.Call(types.Address{}, addr, nil, 100000, nil)
	if err != nil {
		t.Error(err)
		return 0
	}
	var w uint256.Int
	w.SetBytes(ret)
	return w.Uint64()
}

func analysisCacheLen() int {
	analysisCache.RLock()
	defer analysisCache.RUnlock()
	return len(analysisCache.m)
}

func TestAnalysisCacheBounded(t *testing.T) {
	base, addrs := deployDistinct(analysisCacheCap + 40)
	for round := 0; round < 2; round++ { // second round: evicted codes come back
		for i, addr := range addrs {
			if got := callWord(t, base, addr); got != uint64(i) {
				t.Fatalf("contract %d returned %d", i, got)
			}
			if n := analysisCacheLen(); n > analysisCacheCap {
				t.Fatalf("cache holds %d analyses, cap %d", n, analysisCacheCap)
			}
		}
	}
	if n := analysisCacheLen(); n != analysisCacheCap {
		t.Fatalf("cache holds %d analyses after %d distinct codes, want it full at %d", n, len(addrs), analysisCacheCap)
	}
}

// TestConcurrentCallsShareAnalysis: 8 goroutines call the same few codes,
// racing to build, insert, hit and evict their analyses. Run under -race.
func TestConcurrentCallsShareAnalysis(t *testing.T) {
	base, addrs := deployDistinct(4)
	analysisCache.Lock()
	clear(analysisCache.m) // start cold so the first calls race to insert
	analysisCache.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := i % len(addrs)
				if got := callWord(t, base, addrs[n]); got != uint64(n) {
					t.Errorf("contract %d returned %d", n, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
