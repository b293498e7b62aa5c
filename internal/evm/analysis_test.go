package evm

import (
	"bytes"
	"math/big"
	"slices"
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
			if len(an.pushes) != 1 || len(an.segs) != 1 || an.segs[0].push != 0 {
				t.Fatalf("PUSH%d with %d bytes: pushes=%d segs=%+v", n, k, len(an.pushes), an.segs)
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

// admittedFailures lists every opcode a segment may hold with the errors its
// execution can return once its gas and stack checks have passed. An opcode
// that is admitted but not listed fails TestSegmentAdmission: listing it means
// having answered whether it can fail (then it must end its segment), whether
// any of its cost is not constantGas, and whether it reads f.gas (then it must
// not be admitted, for a segment's gas is all taken at its entry).
var admittedFailures = map[OpCode][]error{
	STOP: nil, ADD: nil, MUL: nil, SUB: nil, DIV: nil, SDIV: nil, MOD: nil, SMOD: nil, ADDMOD: nil,
	MULMOD: nil, SIGNEXTEND: nil, LT: nil, GT: nil, SLT: nil, SGT: nil, EQ: nil, ISZERO: nil, AND: nil,
	OR: nil, XOR: nil, NOT: nil, BYTE: nil, SHL: nil, SHR: nil, SAR: nil,
	ADDRESS: nil, BALANCE: nil, ORIGIN: nil, CALLER: nil, CALLVALUE: nil, CALLDATALOAD: nil,
	CALLDATASIZE: nil, CODESIZE: nil, GASPRICE: nil, EXTCODESIZE: nil, RETURNDATASIZE: nil,
	EXTCODEHASH: nil, BLOCKHASH: nil, COINBASE: nil, TIMESTAMP: nil, NUMBER: nil, GASLIMIT: nil,
	CHAINID: nil, SELFBALANCE: nil, POP: nil, SLOAD: nil, PC: nil, MSIZE: nil, JUMPDEST: nil, PUSH0: nil,
	JUMP: {ErrInvalidJump}, JUMPI: {ErrInvalidJump},
}

func init() {
	for op := PUSH1; op <= SWAP16; op++ { // PUSH1..PUSH32, DUP1..DUP16, SWAP1..SWAP16
		admittedFailures[op] = nil
	}
}

// TestSegmentAdmission holds the admitted set to admittedFailures and checks
// what can be checked by running each admitted op alone: no memory or dynamic
// gas function, a result that does not depend on the gas left, and no error
// except from an op that ends its segment.
func TestSegmentAdmission(t *testing.T) {
	base := state.NewGenesisBuilder().Build()
	for i := range jumpTable {
		op, oper := OpCode(i), &jumpTable[i]
		failures, listed := admittedFailures[op]
		if oper.admitted != listed {
			t.Errorf("%v: admitted %v, listed in admittedFailures %v", op, oper.admitted, listed)
		}
		if !oper.admitted {
			continue
		}
		if oper.memorySize != nil || oper.dynamicGas != nil || op == GAS {
			t.Errorf("%v is admitted but its cost or result is not a constant of the code", op)
		}
		// The op after enough operands, then an ADD that belongs to the same
		// segment unless the op ends it. The operands are 1: not a JUMPDEST,
		// so JUMP and JUMPI fail.
		var code []byte
		for n := 0; n < oper.minStack; n++ {
			code = append(code, byte(PUSH1), 1)
		}
		opAt := len(code)
		code = append(code, byte(op), byte(ADD))
		an := analyse(code)
		endsSegment := an.segs[0].end == uint32(opAt+1)
		if len(failures) > 0 && !endsSegment {
			t.Errorf("%v can fail with %v but does not end its segment", op, failures)
		}
		var results [2]uint256.Int
		for i, gas := range []uint64{100_000, 200_000} {
			f := &frame{code: code[:opAt+1], an: analyse(code[:opAt+1]), gas: gas, mem: newMemory()}
			_, err := New(state.NewOverlay(base, 0), BlockContext{}, TxContext{}).run(f)
			if err != nil && !slices.Contains(failures, err) {
				t.Errorf("%v returned %v, not among its listed failures %v", op, err, failures)
			}
			// STOP and JUMPDEST write no stack word: data[0] would be whatever
			// the pooled stack last held, which differs whenever the pool
			// hands out another stack (after a GC; at random under -race).
			if oper.minStack > 0 || oper.maxStack < stackLimit {
				results[i] = f.stack.data[0]
			}
		}
		if results[0] != results[1] {
			t.Errorf("%v: result depends on the gas left (%v, %v)", op, &results[0], &results[1])
		}
	}
}

// TestSegmentBounds checks gas, end, first push, need and peak of hand-written
// segments, where slot says they start and which PUSHes it marks as constant
// jumps.
func TestSegmentBounds(t *testing.T) {
	many := func(op OpCode, n int) []byte { return bytes.Repeat([]byte{byte(op)}, n) }
	sg := func(gas uint64, end, push uint32, need, peak uint16) segment {
		return segment{gas: gas, end: end, push: push, need: need, peak: peak}
	}
	cases := []struct {
		name       string
		code       []byte
		starts     []int // pc of each segment's first op
		want       []segment
		constJumps []int // pc of each PUSH with constJumpSlot
	}{
		{"ended by end of code", []byte{byte(PUSH1), 1, byte(PUSH1), 2, byte(ADD), byte(POP)},
			[]int{0}, []segment{sg(3+3+3+2, 6, 0, 0, 2)}, nil},
		{"pops before it pushes", []byte{byte(POP), byte(POP), byte(PUSH0)},
			[]int{0}, []segment{sg(2+2+2, 3, 0, 2, 0)}, nil},
		{"DUP16", []byte{byte(DUP16)}, []int{0}, []segment{sg(3, 1, 0, 16, 1)}, nil},
		{"SWAP16", []byte{byte(SWAP16)}, []int{0}, []segment{sg(3, 1, 0, 17, 0)}, nil},
		{"DUP16 after a POP", []byte{byte(POP), byte(DUP16)}, []int{0}, []segment{sg(5, 2, 0, 17, 0)}, nil},
		{"truncated PUSH", []byte{byte(PUSH1 + 3), 0xaa}, []int{0}, []segment{sg(3, 2, 0, 0, 1)}, nil},
		{"single op between two that are not admitted", []byte{byte(GAS), byte(ADD), byte(GAS)},
			[]int{1}, []segment{sg(3, 2, 0, 2, 0)}, nil},
		{"split at JUMPDEST", []byte{byte(PUSH1), 0, byte(JUMPDEST), byte(PUSH1), 0},
			[]int{0, 2}, []segment{sg(3, 2, 0, 0, 1), sg(1+3, 5, 1, 0, 1)}, nil},
		{"ended by JUMP, JUMPI and STOP, constant jumps resolved",
			[]byte{byte(PUSH1), 8, byte(JUMP), byte(PUSH0), byte(PUSH1), 8, byte(JUMPI), byte(STOP), byte(JUMPDEST)},
			[]int{0, 3, 7, 8}, []segment{sg(3+8, 3, 0, 0, 1), sg(2+3+10, 7, 1, 0, 2), sg(0, 8, 2, 0, 0), sg(1, 9, 2, 0, 0)}, []int{0, 4}},
		{"constant jumps left alone: not a JUMPDEST, a 0x5b in PUSH data, past the end, not pushed just before",
			[]byte{byte(PUSH1), 1, byte(JUMP), byte(PUSH1), 7, byte(JUMP), byte(PUSH1), byte(JUMPDEST), byte(PUSH1), 99, byte(JUMPI),
				byte(PUSH1), 15, byte(DUP1), byte(JUMP), byte(JUMPDEST)},
			[]int{0, 3, 6, 11, 15}, []segment{sg(11, 3, 0, 0, 1), sg(11, 6, 1, 0, 1), sg(3+3+10, 11, 2, 0, 2), sg(3+3+8, 15, 4, 0, 2), sg(1, 16, 5, 0, 0)}, nil},
		{"a 0x5b in PUSH data starts nothing", []byte{byte(PUSH1), byte(JUMPDEST), byte(POP)},
			[]int{0}, []segment{sg(3+2, 3, 0, 0, 1)}, nil},
		{"need saturates", many(POP, 1100), []int{0}, []segment{sg(2*1100, 1100, 0, stackLimit+1, 0)}, nil},
		{"peak saturates", many(PUSH0, 1100), []int{0}, []segment{sg(2*1100, 1100, 0, 0, stackLimit+1)}, nil},
	}
	for _, c := range cases {
		an := analyse(c.code)
		if !slices.Equal(an.segs, c.want) {
			t.Errorf("%s: segments %+v, want %+v", c.name, an.segs, c.want)
		}
		var starts, constJumps []int
		for pc, s := range an.slot {
			if s&constJumpSlot != 0 {
				constJumps = append(constJumps, pc)
			}
			if s&segIndexMask != 0 {
				starts = append(starts, pc)
				if int(s&segIndexMask) != len(starts) {
					t.Errorf("%s: slot[%d] names segment %d, want %d", c.name, pc, s&segIndexMask-1, len(starts)-1)
				}
			}
		}
		if !slices.Equal(starts, c.starts) {
			t.Errorf("%s: segments start at %v, want %v", c.name, starts, c.starts)
		}
		if !slices.Equal(constJumps, c.constJumps) {
			t.Errorf("%s: constant jumps at %v, want %v", c.name, constJumps, c.constJumps)
		}
	}
}

// TestRunSpinLoopZeroAlloc is BenchmarkRunSpinLoop's allocation row as a test:
// the one thing a frame would allocate, its operand stack, comes from the pool.
func TestRunSpinLoopZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops stacks at random")
	}
	input := make([]byte, 96)
	input[95] = 50
	e := New(nil, BlockContext{}, TxContext{})
	f := &frame{code: spinLoopCode, an: analyse(spinLoopCode), input: input, mem: newMemory()}
	if allocs := testing.AllocsPerRun(100, func() {
		f.gas = 1_000_000
		if _, err := e.run(f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("run allocates %v times per spin-loop frame, want 0", allocs)
	}
}
