package main

import (
	"math"
	"strings"
	"testing"
)

// testdata/mainnet.cpu.pb.gz is a real runtime/pprof CPU profile of a short
// traced mainnet run (go run ./benchmark -workload mainnet -rounds 160 -trace 1).
func TestCPUBudgetFromProfile(t *testing.T) {
	samples, err := readProfile("testdata/mainnet.cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 100 {
		t.Fatalf("only %d samples parsed", len(samples))
	}

	const cpuUtil = 0.8
	shares := cpuShares(samples, cpuUtil)
	if len(shares) != len(cpuLayers) {
		t.Errorf("%d shares, want the %d budget rows", len(shares), len(cpuLayers))
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01", sum)
	}
	if math.Abs(shares["idle"]-(1-cpuUtil)) > 1e-9 {
		t.Errorf("idle share %v, want %v", shares["idle"], 1-cpuUtil)
	}
	if shares["evm"] < 0.3 {
		t.Errorf("evm share %v: the interpreter dominates a mainnet run", shares["evm"])
	}

	// An allocation made by the interpreter is the interpreter's cost.
	found := false
	for _, s := range samples {
		if len(s.funcs) < 2 || s.funcs[0] != "runtime.mallocgc" {
			continue
		}
		for _, fn := range s.funcs {
			if !strings.HasPrefix(fn, internalPrefix) {
				continue
			}
			if strings.HasPrefix(fn, internalPrefix+"evm.") {
				found = true
				if got := classify(s.funcs); got != "evm" {
					t.Errorf("mallocgc under %s charged to %q, want evm", fn, got)
				}
			}
			break // innermost repo frame only
		}
	}
	if !found {
		t.Error("profile holds no runtime.mallocgc sample whose innermost repo frame is in evm")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "blockpilot/internal/evm.(*EVM).run", "blockpilot/internal/core.proposeOCC.func3", "main.(*cluster).step"}, "evm"},
		{[]string{"blockpilot/internal/uint256.(*Int).Mul", "blockpilot/internal/evm.opMul"}, "evm"},
		{[]string{"blockpilot/internal/crypto.keccakF", "blockpilot/internal/trie.(*Trie).Hash"}, "crypto"},
		{[]string{"syscall.Syscall", "os.(*File).WriteAt", "blockpilot/internal/trie/store.(*Batch).Commit", "blockpilot/internal/trie.(*Batch).Commit"}, "store"},
		{[]string{"blockpilot/internal/rlp.EncodeList", "blockpilot/internal/types.(*Block).Encode"}, "types"},
		{[]string{"blockpilot/internal/telemetry.(*Histogram).Observe", "blockpilot/internal/validator.validateParallel"}, "obs"},
		{[]string{"math/rand.(*Rand).Float64", "blockpilot/internal/workload.(*Generator).NextBlockTxs", "main.(*cluster).step"}, "bench"},
		{[]string{"runtime.memmove", "main.(*recorder).open", "main.(*cluster).step"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
