package evm

import (
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

type executionFunc func(e *EVM, f *frame) error

// operation describes one opcode's dispatch entry.
type operation struct {
	// execute is nil for the opcodes (*EVM).run implements as cases of its
	// dispatch switch.
	execute     executionFunc
	constantGas uint64
	minStack    int
	maxStack    int
	// memorySize returns the memory size required by the op (0 = none).
	memorySize func(f *frame) (uint64, bool)
	// dynamicGas returns the op's variable cost (memory expansion included);
	// the bool reports overflow, treated as out-of-gas.
	dynamicGas func(e *EVM, f *frame, memSize uint64) (uint64, bool)
	halts      bool // op ends the frame successfully (RETURN)
	// admitted ops may be part of a segment: their whole cost is constantGas,
	// their stack effect is minStack/maxStack, and they neither read f.gas
	// nor end the frame early except as a segment's last op.
	admitted bool
}

// defined reports whether the opcode exists (entry leaves maxStack ≥
// stackLimit-1).
func (o *operation) defined() bool { return o.maxStack != 0 }

// maxStackFor returns the stack-size ceiling before an op that pops `pop`
// and pushes `push` words.
func maxStackFor(pop, push int) int {
	return stackLimit + pop - push
}

// --- memory size helpers ---

func memFixed32(stackPos int) func(f *frame) (uint64, bool) {
	return func(f *frame) (uint64, bool) {
		return calcMemSize64(f.stack.back(stackPos), uint256.NewInt(32))
	}
}

func memRange(offPos, sizePos int) func(f *frame) (uint64, bool) {
	return func(f *frame) (uint64, bool) {
		return calcMemSize64(f.stack.back(offPos), f.stack.back(sizePos))
	}
}

func memMstore8(f *frame) (uint64, bool) {
	return calcMemSize64(f.stack.back(0), uint256.NewInt(1))
}

func memCall(f *frame) (uint64, bool) {
	in, overflow := calcMemSize64(f.stack.back(3), f.stack.back(4))
	if overflow {
		return 0, true
	}
	out, overflow := calcMemSize64(f.stack.back(5), f.stack.back(6))
	if overflow {
		return 0, true
	}
	if in > out {
		return in, false
	}
	return out, false
}

// memCallSixArg covers DELEGATECALL/STATICCALL (no value operand).
func memCallSixArg(f *frame) (uint64, bool) {
	in, overflow := calcMemSize64(f.stack.back(2), f.stack.back(3))
	if overflow {
		return 0, true
	}
	out, overflow := calcMemSize64(f.stack.back(4), f.stack.back(5))
	if overflow {
		return 0, true
	}
	if in > out {
		return in, false
	}
	return out, false
}

// gasCreate2 charges memory expansion plus the init-code hashing words.
func gasCreate2(e *EVM, f *frame, memSize uint64) (uint64, bool) {
	gas, overflow := memoryGasCost(f.mem, memSize)
	if overflow {
		return 0, true
	}
	size := f.stack.back(2)
	if !size.IsUint64() {
		return 0, true
	}
	return gas + toWordSize(size.Uint64())*GasSha3Word, false
}

// --- dynamic gas helpers ---

func gasMemOnly(e *EVM, f *frame, memSize uint64) (uint64, bool) {
	return memoryGasCost(f.mem, memSize)
}

// gasCopy charges memory expansion plus 3 gas per copied word; the size is
// at stack position sizePos.
func gasCopy(sizePos int) func(e *EVM, f *frame, memSize uint64) (uint64, bool) {
	return func(e *EVM, f *frame, memSize uint64) (uint64, bool) {
		gas, overflow := memoryGasCost(f.mem, memSize)
		if overflow {
			return 0, true
		}
		size := f.stack.back(sizePos)
		if !size.IsUint64() {
			return 0, true
		}
		words := toWordSize(size.Uint64())
		return gas + words*GasCopyWord, false
	}
}

func gasSha3(e *EVM, f *frame, memSize uint64) (uint64, bool) {
	gas, overflow := memoryGasCost(f.mem, memSize)
	if overflow {
		return 0, true
	}
	size := f.stack.back(1)
	if !size.IsUint64() {
		return 0, true
	}
	return gas + toWordSize(size.Uint64())*GasSha3Word, false
}

func gasExp(e *EVM, f *frame, memSize uint64) (uint64, bool) {
	exp := f.stack.back(1)
	byteLen := uint64((exp.BitLen() + 7) / 8)
	return byteLen * GasExpByte, false
}

func gasSstore(e *EVM, f *frame, memSize uint64) (uint64, bool) {
	slot := f.stack.back(0)
	newVal := f.stack.back(1)
	current := e.State.GetState(f.address, types.WordToHash(slot))
	if current.IsZero() && !newVal.IsZero() {
		return GasSstoreSet, false
	}
	if !current.IsZero() && newVal.IsZero() {
		e.State.AddRefund(RefundSstoreClear)
	}
	return GasSstoreReset, false
}

func gasLog(topics uint64) func(e *EVM, f *frame, memSize uint64) (uint64, bool) {
	return func(e *EVM, f *frame, memSize uint64) (uint64, bool) {
		gas, overflow := memoryGasCost(f.mem, memSize)
		if overflow {
			return 0, true
		}
		size := f.stack.back(1)
		if !size.IsUint64() {
			return 0, true
		}
		return gas + GasLog + topics*GasLogTopic + size.Uint64()*GasLogByte, false
	}
}

func gasCallDyn(e *EVM, f *frame, memSize uint64) (uint64, bool) {
	// Only memory expansion here; value-transfer surcharges and forwarded
	// gas are charged inside opCall where the operands are decoded.
	return memoryGasCost(f.mem, memSize)
}

// jumpTable is the opcode dispatch table.
var jumpTable [256]operation

func entry(op OpCode, exec executionFunc, gas uint64, pop, push int) *operation {
	jumpTable[op] = operation{
		execute:     exec,
		constantGas: gas,
		minStack:    pop,
		maxStack:    maxStackFor(pop, push),
	}
	return &jumpTable[op]
}

func init() {
	entry(STOP, nil, 0, 0, 0)
	entry(ADD, nil, GasFastestStep, 2, 1)
	entry(MUL, nil, GasFastStep, 2, 1)
	entry(SUB, nil, GasFastestStep, 2, 1)
	entry(DIV, nil, GasFastStep, 2, 1)
	entry(SDIV, nil, GasFastStep, 2, 1)
	entry(MOD, nil, GasFastStep, 2, 1)
	entry(SMOD, nil, GasFastStep, 2, 1)
	entry(ADDMOD, nil, GasMidStep, 3, 1)
	entry(MULMOD, nil, GasMidStep, 3, 1)
	entry(EXP, nil, GasSlowStep, 2, 1).dynamicGas = gasExp
	entry(SIGNEXTEND, nil, GasFastStep, 2, 1)

	entry(LT, nil, GasFastestStep, 2, 1)
	entry(GT, nil, GasFastestStep, 2, 1)
	entry(SLT, nil, GasFastestStep, 2, 1)
	entry(SGT, nil, GasFastestStep, 2, 1)
	entry(EQ, nil, GasFastestStep, 2, 1)
	entry(ISZERO, nil, GasFastestStep, 1, 1)
	entry(AND, nil, GasFastestStep, 2, 1)
	entry(OR, nil, GasFastestStep, 2, 1)
	entry(XOR, nil, GasFastestStep, 2, 1)
	entry(NOT, nil, GasFastestStep, 1, 1)
	entry(BYTE, nil, GasFastestStep, 2, 1)
	entry(SHL, nil, GasFastestStep, 2, 1)
	entry(SHR, nil, GasFastestStep, 2, 1)
	entry(SAR, nil, GasFastestStep, 2, 1)

	sha3 := entry(SHA3, opSha3, GasSha3, 2, 1)
	sha3.memorySize = memRange(0, 1)
	sha3.dynamicGas = gasSha3

	entry(ADDRESS, opAddress, GasQuickStep, 0, 1)
	entry(BALANCE, opBalance, GasBalance, 1, 1)
	entry(ORIGIN, opOrigin, GasQuickStep, 0, 1)
	entry(CALLER, opCaller, GasQuickStep, 0, 1)
	entry(CALLVALUE, opCallValue, GasQuickStep, 0, 1)
	entry(CALLDATALOAD, opCallDataLoad, GasFastestStep, 1, 1)
	entry(CALLDATASIZE, opCallDataSize, GasQuickStep, 0, 1)
	cdc := entry(CALLDATACOPY, opCallDataCopy, GasFastestStep, 3, 0)
	cdc.memorySize = memRange(0, 2)
	cdc.dynamicGas = gasCopy(2)
	entry(CODESIZE, opCodeSize, GasQuickStep, 0, 1)
	cc := entry(CODECOPY, opCodeCopy, GasFastestStep, 3, 0)
	cc.memorySize = memRange(0, 2)
	cc.dynamicGas = gasCopy(2)
	entry(GASPRICE, opGasPrice, GasQuickStep, 0, 1)
	entry(EXTCODESIZE, opExtCodeSize, GasExtCode, 1, 1)
	entry(RETURNDATASIZE, opReturnDataSize, GasQuickStep, 0, 1)
	rdc := entry(RETURNDATACOPY, opReturnDataCopy, GasFastestStep, 3, 0)
	rdc.memorySize = memRange(0, 2)
	rdc.dynamicGas = gasCopy(2)

	entry(BLOCKHASH, opBlockhash, 20, 1, 1)
	entry(COINBASE, opCoinbase, GasQuickStep, 0, 1)
	entry(TIMESTAMP, opTimestamp, GasQuickStep, 0, 1)
	entry(NUMBER, opNumber, GasQuickStep, 0, 1)
	entry(GASLIMIT, opGasLimit, GasQuickStep, 0, 1)
	entry(CHAINID, opChainID, GasQuickStep, 0, 1)
	entry(SELFBALANCE, opSelfBalance, GasFastStep, 0, 1)

	entry(POP, nil, GasQuickStep, 1, 0)
	ml := entry(MLOAD, opMload, GasFastestStep, 1, 1)
	ml.memorySize = memFixed32(0)
	ml.dynamicGas = gasMemOnly
	ms := entry(MSTORE, opMstore, GasFastestStep, 2, 0)
	ms.memorySize = memFixed32(0)
	ms.dynamicGas = gasMemOnly
	ms8 := entry(MSTORE8, opMstore8, GasFastestStep, 2, 0)
	ms8.memorySize = memMstore8
	ms8.dynamicGas = gasMemOnly
	entry(SLOAD, opSload, GasSload, 1, 1)
	ss := entry(SSTORE, opSstore, 0, 2, 0)
	ss.dynamicGas = gasSstore
	entry(JUMP, nil, GasMidStep, 1, 0)
	entry(JUMPI, nil, GasSlowStep, 2, 0)
	entry(PC, nil, GasQuickStep, 0, 1)
	entry(MSIZE, opMsize, GasQuickStep, 0, 1)
	entry(GAS, opGas, GasQuickStep, 0, 1)
	entry(JUMPDEST, nil, GasJumpdest, 0, 0)
	entry(PUSH0, nil, GasQuickStep, 0, 1)

	for n := 1; n <= 32; n++ {
		entry(PUSH1+OpCode(n-1), nil, GasFastestStep, 0, 1)
	}
	for n := 1; n <= 16; n++ {
		entry(DUP1+OpCode(n-1), nil, GasFastestStep, n, n+1)
	}
	for n := 1; n <= 16; n++ {
		entry(SWAP1+OpCode(n-1), nil, GasFastestStep, n+1, n+1)
	}
	for n := 0; n <= 4; n++ {
		lg := entry(LOG0+OpCode(n), makeLog(n), 0, n+2, 0)
		lg.memorySize = memRange(0, 1)
		lg.dynamicGas = gasLog(uint64(n))
	}

	call := entry(CALL, opCall, GasCall, 7, 1)
	call.memorySize = memCall
	call.dynamicGas = gasCallDyn

	dc := entry(DELEGATECALL, opDelegateCall, GasCall, 6, 1)
	dc.memorySize = memCallSixArg
	dc.dynamicGas = gasCallDyn

	sc := entry(STATICCALL, opStaticCall, GasCall, 6, 1)
	sc.memorySize = memCallSixArg
	sc.dynamicGas = gasCallDyn

	cr := entry(CREATE, opCreate, GasCreate, 3, 1)
	cr.memorySize = memRange(1, 2)
	cr.dynamicGas = gasMemOnly

	cr2 := entry(CREATE2, opCreate2, GasCreate, 4, 1)
	cr2.memorySize = memRange(1, 2)
	cr2.dynamicGas = gasCreate2

	ecc := entry(EXTCODECOPY, opExtCodeCopy, GasExtCode, 4, 0)
	ecc.memorySize = memRange(1, 3)
	ecc.dynamicGas = gasCopy(3)
	entry(EXTCODEHASH, opExtCodeHash, GasExtCode, 1, 1)

	ret := entry(RETURN, opReturn, 0, 2, 0)
	ret.memorySize = memRange(0, 1)
	ret.dynamicGas = gasMemOnly
	ret.halts = true

	rev := entry(REVERT, opRevert, 0, 2, 0)
	rev.memorySize = memRange(0, 1)
	rev.dynamicGas = gasMemOnly

	entry(INVALID, opInvalid, 0, 0, 0)

	for op := range jumpTable {
		oper := &jumpTable[op]
		oper.admitted = oper.defined() && oper.memorySize == nil && oper.dynamicGas == nil &&
			OpCode(op) != GAS && OpCode(op) != INVALID
	}
}
