package evm_test

import (
	"math/rand"
	"testing"

	"blockpilot/internal/evm"
	"blockpilot/internal/state"
	"blockpilot/internal/uint256"
)

// Differential test: random straight-line stack programs are executed by
// the interpreter and by an independent reference stack machine built on
// the (separately verified) uint256 package; results must agree. This
// exercises opcode dispatch, operand order, PUSH1..PUSH32 immediate decoding
// (including a truncated PUSH at the tail), and DUP/SWAP indexing across
// thousands of programs.

type refOp struct {
	op    evm.OpCode
	arity int
	apply func(args []uint256.Int) uint256.Int // args[0] = stack top
}

var refOps = []refOp{
	{evm.ADD, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Add(&a[0], &a[1]); return z }},
	{evm.MUL, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Mul(&a[0], &a[1]); return z }},
	{evm.SUB, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Sub(&a[0], &a[1]); return z }},
	{evm.DIV, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Div(&a[0], &a[1]); return z }},
	{evm.SDIV, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.SDiv(&a[0], &a[1]); return z }},
	{evm.MOD, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Mod(&a[0], &a[1]); return z }},
	{evm.SMOD, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.SMod(&a[0], &a[1]); return z }},
	{evm.ADDMOD, 3, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.AddMod(&a[0], &a[1], &a[2]); return z }},
	{evm.MULMOD, 3, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.MulMod(&a[0], &a[1], &a[2]); return z }},
	{evm.SIGNEXTEND, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.SignExtend(&a[0], &a[1]); return z }},
	{evm.LT, 2, func(a []uint256.Int) uint256.Int { return boolInt(a[0].Lt(&a[1])) }},
	{evm.GT, 2, func(a []uint256.Int) uint256.Int { return boolInt(a[0].Gt(&a[1])) }},
	{evm.SLT, 2, func(a []uint256.Int) uint256.Int { return boolInt(a[0].Slt(&a[1])) }},
	{evm.SGT, 2, func(a []uint256.Int) uint256.Int { return boolInt(a[0].Sgt(&a[1])) }},
	{evm.EQ, 2, func(a []uint256.Int) uint256.Int { return boolInt(a[0].Eq(&a[1])) }},
	{evm.ISZERO, 1, func(a []uint256.Int) uint256.Int { return boolInt(a[0].IsZero()) }},
	{evm.AND, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.And(&a[0], &a[1]); return z }},
	{evm.OR, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Or(&a[0], &a[1]); return z }},
	{evm.XOR, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Xor(&a[0], &a[1]); return z }},
	{evm.NOT, 1, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Not(&a[0]); return z }},
	{evm.BYTE, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Byte(&a[0], &a[1]); return z }},
	{evm.SHL, 2, func(a []uint256.Int) uint256.Int { return shiftRef(a, (*uint256.Int).Lsh, false) }},
	{evm.SHR, 2, func(a []uint256.Int) uint256.Int { return shiftRef(a, (*uint256.Int).Rsh, false) }},
	{evm.SAR, 2, func(a []uint256.Int) uint256.Int { return shiftRef(a, (*uint256.Int).SRsh, true) }},
	{evm.EXP, 2, func(a []uint256.Int) uint256.Int { var z uint256.Int; z.Exp(&a[0], &a[1]); return z }},
}

func boolInt(b bool) uint256.Int {
	var z uint256.Int
	if b {
		z.SetUint64(1)
	}
	return z
}

func shiftRef(a []uint256.Int, fn func(z, x *uint256.Int, n uint) *uint256.Int, arithmetic bool) uint256.Int {
	var z uint256.Int
	if !a[0].IsUint64() || a[0].Uint64() >= 256 {
		if arithmetic && a[1].Sign() < 0 {
			z.Not(&uint256.Int{})
		}
		return z
	}
	fn(&z, &a[1], uint(a[0].Uint64()))
	return z
}

// randWord mirrors the skewed distribution of the uint256 tests.
func randWord(r *rand.Rand) uint256.Int {
	var z uint256.Int
	switch r.Intn(5) {
	case 0:
		z.SetUint64(uint64(r.Intn(8)))
	case 1:
		z.SetUint64(r.Uint64())
	case 2:
		var b [32]byte
		r.Read(b[:])
		z.SetBytes(b[:])
	case 3:
		z.Not(&z) // all ones
	case 4:
		z.SetUint64(1)
		z.Lsh(&z, uint(r.Intn(256)))
	}
	return z
}

func TestDifferentialStackPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 1500; trial++ {
		// Reference stack seeded with pushes.
		depth := 3 + r.Intn(6)
		var stack []uint256.Int // stack[len-1] = top
		var code []byte
		for i := 0; i < depth; i++ {
			w := randWord(r)
			stack = append(stack, w)
			// Any PUSHn wide enough for the word, zero-extended on the left.
			b := w.Bytes32()
			n := max(1, len(w.Bytes()))
			n += r.Intn(32 - n + 1)
			code = append(code, byte(evm.PUSH1)+byte(n-1))
			code = append(code, b[32-n:]...)
		}
		// Random op sequence, keeping the stack non-empty.
		steps := 1 + r.Intn(8)
		for s := 0; s < steps; s++ {
			switch r.Intn(6) {
			case 0: // DUPn
				n := 1 + r.Intn(len(stack))
				if n > 16 {
					n = 16
				}
				code = append(code, byte(evm.DUP1)+byte(n-1))
				stack = append(stack, stack[len(stack)-n])
			case 1: // SWAPn
				if len(stack) < 2 {
					continue
				}
				n := 1 + r.Intn(len(stack)-1)
				if n > 16 {
					n = 16
				}
				code = append(code, byte(evm.SWAP1)+byte(n-1))
				top := len(stack) - 1
				stack[top], stack[top-n] = stack[top-n], stack[top]
			default: // arithmetic/bitwise op
				op := refOps[r.Intn(len(refOps))]
				if op.op == evm.EXP && !stack[len(stack)-1].IsUint64() {
					continue // keep EXP exponents sane for test speed
				}
				if len(stack) < op.arity {
					continue
				}
				args := make([]uint256.Int, op.arity)
				for i := 0; i < op.arity; i++ {
					args[i] = stack[len(stack)-1-i]
				}
				stack = stack[:len(stack)-op.arity]
				stack = append(stack, op.apply(args))
				code = append(code, byte(op.op))
			}
		}
		want := stack[len(stack)-1]
		// Return the top of stack.
		code = append(code,
			byte(evm.PUSH1), 0, byte(evm.MSTORE),
			byte(evm.PUSH1), 32, byte(evm.PUSH1), 0, byte(evm.RETURN))
		// A PUSHn cut short by the end of the code closes every program: it
		// is never reached, but it is analysed with the rest.
		n := 1 + r.Intn(32)
		code = append(code, byte(evm.PUSH1)+byte(n-1))
		code = append(code, make([]byte, r.Intn(n))...)

		base := state.NewGenesisBuilder().
			AddContract(contractAddr, uint256.NewInt(0), code, nil).
			Build()
		o := state.NewOverlay(base, 0)
		e := evm.New(o, evm.BlockContext{}, evm.TxContext{})
		ret, _, err := e.Call(callerAddr, contractAddr, nil, 50_000_000, nil)
		if err != nil {
			t.Fatalf("trial %d: execution failed: %v\ncode=%x", trial, err, code)
		}
		var got uint256.Int
		got.SetBytes(ret)
		if !got.Eq(&want) {
			t.Fatalf("trial %d: got %s, want %s\ncode=%x", trial, got.Hex(), want.Hex(), code)
		}
	}
}
