package evm

import (
	"blockpilot/internal/uint256"
)

// The reference interpreter: the per-op loop (*EVM).run was before it checked
// once per segment, kept here word for word as keccakFRef is kept beside the
// unrolled permutation, together with the op functions that became cases of
// run's dispatch switch and the Stack methods only they used. It takes
// nothing from the code analysis: PUSH immediates are decoded from the code
// and jump destinations come from a plain scan. Frames below the one it runs
// (CALL, CREATE) go through (*EVM).run.

type refExec func(e *EVM, f *refFrame) error

// refFrame is a frame plus what the old loop kept in it.
type refFrame struct {
	*frame
	pc       uint64
	jumpdest []bool // pc holds a JUMPDEST opcode
}

func newRefFrame(f *frame) *refFrame {
	r := &refFrame{frame: f, jumpdest: make([]bool, len(f.code))}
	for pc := 0; pc < len(f.code); pc++ {
		switch op := OpCode(f.code[pc]); {
		case op == JUMPDEST:
			r.jumpdest[pc] = true
		case op >= PUSH1 && op <= PUSH32:
			pc += int(op-PUSH1) + 1
		}
	}
	return r
}

func (f *refFrame) validJump(dest *uint256.Int) bool {
	return dest.IsUint64() && dest.Uint64() < uint64(len(f.jumpdest)) && f.jumpdest[dest.Uint64()]
}

// refOperation is an operation as the old loop saw it: every opcode has an
// execute, and jumps marks the ops that manage pc themselves.
type refOperation struct {
	operation
	execute refExec
	jumps   bool
}

var refTable [256]refOperation

func init() {
	for op := range jumpTable {
		oper := jumpTable[op]
		refTable[op].operation = oper
		if oper.execute != nil {
			refTable[op].execute = func(e *EVM, f *refFrame) error { return oper.execute(e, f.frame) }
		}
	}
	for op, exec := range map[OpCode]refExec{
		STOP: opStop, ADD: opAdd, MUL: opMul, SUB: opSub, DIV: opDiv, SDIV: opSdiv, MOD: opMod, SMOD: opSmod,
		ADDMOD: opAddmod, MULMOD: opMulmod, EXP: opExp, SIGNEXTEND: opSignExtend,
		LT: opLt, GT: opGt, SLT: opSlt, SGT: opSgt, EQ: opEq, ISZERO: opIszero, AND: opAnd, OR: opOr, XOR: opXor,
		NOT: opNot, BYTE: opByte, SHL: opShl, SHR: opShr, SAR: opSar,
		POP: opPop, JUMP: opJump, JUMPI: opJumpi, PC: opPc, JUMPDEST: opJumpdest, PUSH0: opPush0,
	} {
		refTable[op].execute = exec
	}
	refTable[STOP].halts = true
	refTable[JUMP].jumps, refTable[JUMPI].jumps = true, true
	for n := 1; n <= 32; n++ {
		refTable[PUSH1+OpCode(n-1)].execute = makePush(uint64(n))
	}
	for n := 1; n <= 16; n++ {
		refTable[DUP1+OpCode(n-1)].execute = makeDup(n)
		refTable[SWAP1+OpCode(n-1)].execute = makeSwap(n)
	}
}

// runRef executes the frame to completion on a pooled operand stack, which
// goes back to the pool on every exit path.
func (e *EVM) runRef(f *refFrame) ([]byte, error) {
	f.stack = newStack()
	defer f.stack.release()
	for {
		if f.pc >= uint64(len(f.code)) {
			return nil, nil // implicit STOP
		}
		op := OpCode(f.code[f.pc])
		oper := &refTable[op]
		if oper.execute == nil {
			return nil, ErrInvalidOpcode
		}
		if f.stack.len() < oper.minStack {
			return nil, ErrStackUnderflow
		}
		if f.stack.len() > oper.maxStack {
			return nil, ErrStackOverflow
		}
		if !f.useGas(oper.constantGas) {
			return nil, ErrOutOfGas
		}
		var memSize uint64
		if oper.memorySize != nil {
			ms, overflow := oper.memorySize(f.frame)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			memSize = ms
		}
		if oper.dynamicGas != nil {
			dg, overflow := oper.dynamicGas(e, f.frame, memSize)
			if overflow || !f.useGas(dg) {
				return nil, ErrOutOfGas
			}
		}
		if memSize > 0 {
			f.mem.resize(memSize)
		}
		if err := oper.execute(e, f); err != nil {
			return f.ret, err
		}
		if oper.halts {
			return f.ret, nil
		}
		if !oper.jumps {
			f.pc++
		}
	}
}

func (s *Stack) len() int { return s.n }

// dup pushes a copy of the n-th element from the top (1-based, DUPn).
func (s *Stack) dup(n int) {
	s.push(s.back(n - 1))
}

// swap exchanges the top with the n-th element below it (1-based, SWAPn).
func (s *Stack) swap(n int) {
	top := s.n - 1
	s.data[top], s.data[top-n] = s.data[top-n], s.data[top]
}

func opAdd(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.Add(&x, y)
	return nil
}

func opMul(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.Mul(&x, y)
	return nil
}

func opSub(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.Sub(&x, y)
	return nil
}

func opDiv(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.Div(&x, y)
	return nil
}

func opSdiv(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.SDiv(&x, y)
	return nil
}

func opMod(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.Mod(&x, y)
	return nil
}

func opSmod(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.SMod(&x, y)
	return nil
}

func opAddmod(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.pop()
	m := f.stack.peek()
	m.AddMod(&x, &y, m)
	return nil
}

func opMulmod(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.pop()
	m := f.stack.peek()
	m.MulMod(&x, &y, m)
	return nil
}

func opExp(e *EVM, f *refFrame) error {
	base := f.stack.pop()
	exp := f.stack.peek()
	exp.Exp(&base, exp)
	return nil
}

func opSignExtend(e *EVM, f *refFrame) error {
	b := f.stack.pop()
	x := f.stack.peek()
	x.SignExtend(&b, x)
	return nil
}

func opLt(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	boolWord(y, x.Lt(y))
	return nil
}

func opGt(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	boolWord(y, x.Gt(y))
	return nil
}

func opSlt(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	boolWord(y, x.Slt(y))
	return nil
}

func opSgt(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	boolWord(y, x.Sgt(y))
	return nil
}

func opEq(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	boolWord(y, x.Eq(y))
	return nil
}

func opIszero(e *EVM, f *refFrame) error {
	x := f.stack.peek()
	boolWord(x, x.IsZero())
	return nil
}

func opAnd(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.And(&x, y)
	return nil
}

func opOr(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.Or(&x, y)
	return nil
}

func opXor(e *EVM, f *refFrame) error {
	x := f.stack.pop()
	y := f.stack.peek()
	y.Xor(&x, y)
	return nil
}

func opNot(e *EVM, f *refFrame) error {
	x := f.stack.peek()
	x.Not(x)
	return nil
}

func opByte(e *EVM, f *refFrame) error {
	n := f.stack.pop()
	x := f.stack.peek()
	x.Byte(&n, x)
	return nil
}

func opShl(e *EVM, f *refFrame) error {
	shift := f.stack.pop()
	x := f.stack.peek()
	if !shift.IsUint64() || shift.Uint64() >= 256 {
		x.Clear()
		return nil
	}
	x.Lsh(x, uint(shift.Uint64()))
	return nil
}

func opShr(e *EVM, f *refFrame) error {
	shift := f.stack.pop()
	x := f.stack.peek()
	if !shift.IsUint64() || shift.Uint64() >= 256 {
		x.Clear()
		return nil
	}
	x.Rsh(x, uint(shift.Uint64()))
	return nil
}

func opSar(e *EVM, f *refFrame) error {
	shift := f.stack.pop()
	x := f.stack.peek()
	n := uint(256)
	if shift.IsUint64() && shift.Uint64() < 256 {
		n = uint(shift.Uint64())
	}
	x.SRsh(x, n)
	return nil
}

func opPop(e *EVM, f *refFrame) error {
	f.stack.pop()
	return nil
}

func opJump(e *EVM, f *refFrame) error {
	dest := f.stack.pop()
	if !f.validJump(&dest) {
		return ErrInvalidJump
	}
	f.pc = dest.Uint64()
	return nil
}

func opJumpi(e *EVM, f *refFrame) error {
	dest := f.stack.pop()
	cond := f.stack.pop()
	if cond.IsZero() {
		f.pc++
		return nil
	}
	if !f.validJump(&dest) {
		return ErrInvalidJump
	}
	f.pc = dest.Uint64()
	return nil
}

func opPc(e *EVM, f *refFrame) error {
	f.stack.push(uint256.NewInt(f.pc))
	return nil
}

func opPush0(e *EVM, f *refFrame) error {
	var zero uint256.Int
	f.stack.push(&zero)
	return nil
}

// makePush builds the PUSHn implementation, decoding the immediate from the
// code bytes (right-zero-padded when the code ends early) with no help from
// the analysis under test.
func makePush(n uint64) refExec {
	return func(e *EVM, f *refFrame) error {
		var buf [32]byte
		if start := f.pc + 1; start < uint64(len(f.code)) {
			copy(buf[:n], f.code[start:])
		}
		var v uint256.Int
		v.SetBytes(buf[:n])
		f.stack.push(&v)
		f.pc += n
		return nil
	}
}

func makeDup(n int) refExec {
	return func(e *EVM, f *refFrame) error {
		f.stack.dup(n)
		return nil
	}
}

func makeSwap(n int) refExec {
	return func(e *EVM, f *refFrame) error {
		f.stack.swap(n)
		return nil
	}
}

func opStop(e *EVM, f *refFrame) error {
	f.ret = nil
	return nil
}

func opJumpdest(e *EVM, f *refFrame) error { return nil }
