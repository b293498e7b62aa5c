package evm

import (
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/types"
)

// spinLoopCode is internal/workload's spinFragment followed by STOP, laid
// out by hand (the assembler and the workload package both import this one).
// The iteration count is calldata word 2.
var spinLoopCode = []byte{
	byte(PUSH1), 0x40, byte(CALLDATALOAD),
	byte(JUMPDEST), // spin (pc 3)
	byte(DUP1), byte(ISZERO), byte(PUSH1 + 1), 0, 22, byte(JUMPI),
	byte(PUSH1), 1, byte(SWAP1), byte(SUB), byte(DUP1), byte(DUP1), byte(MUL), byte(POP),
	byte(PUSH1 + 1), 0, 3, byte(JUMP),
	byte(JUMPDEST), // spin_done (pc 22)
	byte(POP), byte(STOP),
}

// BenchmarkRunSpinLoop is the interpreter's tight micro row: 4 000 iterations
// of the workload spin loop through run on one reused frame. Steady state
// must not allocate (the operand stack comes from the pool).
func BenchmarkRunSpinLoop(b *testing.B) {
	const gas = 10_000_000
	input := make([]byte, 96)
	input[94], input[95] = 4000>>8, 4000&0xff
	e := New(nil, BlockContext{}, TxContext{})
	f := &frame{code: spinLoopCode, an: analyse(spinLoopCode), input: input, mem: newMemory()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.gas = gas
		if _, err := e.run(f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(gas-f.gas)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mgas/s")
}

// BenchmarkAnalysisHit is the per-frame cost of a cached code analysis.
func BenchmarkAnalysisHit(b *testing.B) {
	hash := types.Hash(crypto.Sum256(spinLoopCode))
	want := analysisFor(hash, spinLoopCode)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysisFor(hash, spinLoopCode) != want {
			b.Fatal("cached analysis was replaced")
		}
	}
}
