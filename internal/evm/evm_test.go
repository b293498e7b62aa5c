package evm_test

import (
	"bytes"
	"errors"
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/evm"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

var (
	contractAddr = types.HexToAddress("0xc0de")
	callerAddr   = types.HexToAddress("0xca11")
)

// runCode deploys code at contractAddr, funds the caller, and calls it.
func runCode(t *testing.T, code []byte, input []byte, gas uint64) ([]byte, uint64, error, *state.Overlay) {
	t.Helper()
	base := state.NewGenesisBuilder().
		AddAccount(callerAddr, uint256.NewInt(1_000_000)).
		AddContract(contractAddr, uint256.NewInt(0), code, nil).
		Build()
	o := state.NewOverlay(base, 0)
	e := evm.New(o, evm.BlockContext{Number: 1, Time: 1000, GasLimit: 10_000_000, ChainID: 1}, evm.TxContext{Origin: callerAddr})
	ret, left, err := e.Call(callerAddr, contractAddr, input, gas, nil)
	return ret, gas - left, err, o
}

// runAsm assembles and runs a program, expecting success, returning the
// 32-byte word the program RETURNs.
func runAsm(t *testing.T, src string) *uint256.Int {
	t.Helper()
	ret, _, err, _ := runCode(t, asm.MustAssemble(src), nil, 1_000_000)
	if err != nil {
		t.Fatalf("execution failed: %v", err)
	}
	if len(ret) != 32 {
		t.Fatalf("returned %d bytes, want 32", len(ret))
	}
	var v uint256.Int
	v.SetBytes(ret)
	return &v
}

// ret32 wraps an expression program so its stack top is returned.
const ret32 = `
	PUSH1 0x00
	MSTORE
	PUSH1 0x20
	PUSH1 0x00
	RETURN
`

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		prog string
		want uint64
	}{
		{"add", "PUSH1 2\nPUSH1 3\nADD", 5},
		{"mul", "PUSH1 7\nPUSH1 6\nMUL", 42},
		{"sub", "PUSH1 3\nPUSH1 10\nSUB", 7}, // SUB: top - second
		{"div", "PUSH1 4\nPUSH1 13\nDIV", 3},
		{"div by zero", "PUSH1 0\nPUSH1 13\nDIV", 0},
		{"mod", "PUSH1 5\nPUSH1 13\nMOD", 3},
		{"exp", "PUSH1 10\nPUSH1 2\nEXP", 1024},
		{"addmod", "PUSH1 7\nPUSH1 5\nPUSH1 4\nADDMOD", 2},
		{"mulmod", "PUSH1 7\nPUSH1 5\nPUSH1 4\nMULMOD", 6},
		{"lt true", "PUSH1 9\nPUSH1 3\nLT", 1},
		{"gt false", "PUSH1 9\nPUSH1 3\nGT", 0},
		{"eq", "PUSH1 9\nPUSH1 9\nEQ", 1},
		{"iszero", "PUSH1 0\nISZERO", 1},
		{"and", "PUSH1 0x0f\nPUSH1 0x3c\nAND", 0x0c},
		{"or", "PUSH1 0x0f\nPUSH1 0x30\nOR", 0x3f},
		{"xor", "PUSH1 0x0f\nPUSH1 0x3c\nXOR", 0x33},
		{"shl", "PUSH1 4\nPUSH1 4\nSHL", 64}, // 4 << 4
		{"shr", "PUSH1 64\nPUSH1 4\nSHR", 4}, // 64 >> 4 (shift on top)
		{"byte", "PUSH1 0xab\nPUSH1 31\nBYTE", 0xab},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runAsm(t, c.prog+ret32)
			if !got.Eq(uint256.NewInt(c.want)) {
				t.Fatalf("got %s, want %d", got.String(), c.want)
			}
		})
	}
}

func TestSignedOps(t *testing.T) {
	// -8 / 3 = -2 (truncated); -8 % 3 = -2 (sign of dividend)
	minus8 := "PUSH1 8\nPUSH1 0\nSUB\n" // 0 - 8
	got := runAsm(t, "PUSH1 3\n"+minus8+"SWAP1\nSWAP1\nSDIV"+ret32)
	// SDIV pops x=top as dividend: stack [3, -8] → top is -8? Build explicitly:
	// We want -8 / 3: push 3 first, then -8 (top). SDIV does top/second.
	var want uint256.Int
	want.Neg(uint256.NewInt(2))
	if !got.Eq(&want) {
		t.Fatalf("SDIV got %s", got.Hex())
	}
	got = runAsm(t, "PUSH1 3\n"+minus8+"SMOD"+ret32)
	if !got.Eq(&want) {
		t.Fatalf("SMOD got %s", got.Hex())
	}
	// SLT: -8 < 3 → 1
	got = runAsm(t, "PUSH1 3\n"+minus8+"SLT"+ret32)
	if !got.Eq(uint256.NewInt(1)) {
		t.Fatalf("SLT got %s", got.String())
	}
	// SAR of -8 by 1 = -4 (shift on top)
	got = runAsm(t, minus8+"PUSH1 1\nSAR"+ret32)
	var want4 uint256.Int
	want4.Neg(uint256.NewInt(4))
	if !got.Eq(&want4) {
		t.Fatalf("SAR got %s", got.Hex())
	}
}

func TestMemoryOps(t *testing.T) {
	got := runAsm(t, `
		PUSH1 0xaa
		PUSH1 0x20
		MSTORE
		PUSH1 0x20
		MLOAD
	`+ret32)
	if !got.Eq(uint256.NewInt(0xaa)) {
		t.Fatalf("MLOAD got %s", got.String())
	}
	// MSTORE8 writes a single byte.
	got = runAsm(t, `
		PUSH1 0xff
		PUSH1 0x00
		MSTORE8
		PUSH1 0x00
		MLOAD
	`+`
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`)
	var want uint256.Int
	want.Lsh(uint256.NewInt(0xff), 248) // byte 0 is the MSB of the word
	if !got.Eq(&want) {
		t.Fatalf("MSTORE8 got %s", got.Hex())
	}
}

func TestSha3MatchesKeccak(t *testing.T) {
	got := runAsm(t, `
		PUSH1 0xab
		PUSH1 0x00
		MSTORE
		PUSH1 0x20
		PUSH1 0x00
		SHA3
	`+ret32)
	var data [32]byte
	data[31] = 0xab
	want := crypto.Keccak256(data[:])
	gotBytes := got.Bytes32()
	if !bytes.Equal(gotBytes[:], want) {
		t.Fatalf("SHA3 = %s, want %x", got.Hex(), want)
	}
}

func TestStorage(t *testing.T) {
	_, _, err, o := runCode(t, asm.MustAssemble(`
		PUSH1 42
		PUSH1 7
		SSTORE
	`), nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	slot := types.BytesToHash([]byte{7})
	if v := o.GetState(contractAddr, slot); !v.Eq(uint256.NewInt(42)) {
		t.Fatalf("storage = %s", v.String())
	}
	// And reads back within the EVM.
	got := runAsm(t, `
		PUSH1 42
		PUSH1 7
		SSTORE
		PUSH1 7
		SLOAD
	`+ret32)
	if !got.Eq(uint256.NewInt(42)) {
		t.Fatalf("SLOAD got %s", got.String())
	}
}

func TestSstoreGasAndRefund(t *testing.T) {
	// zero → nonzero costs 20000; clearing adds a refund.
	_, gasUsed, err, o := runCode(t, asm.MustAssemble(`
		PUSH1 1
		PUSH1 0
		SSTORE
		PUSH1 0
		PUSH1 0
		SSTORE
	`), nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// 4 pushes (3 each) + 20000 + 5000.
	want := uint64(4*3 + 20000 + 5000)
	if gasUsed != want {
		t.Fatalf("gas used = %d, want %d", gasUsed, want)
	}
	if o.GetRefund() != 15000 {
		t.Fatalf("refund = %d, want 15000", o.GetRefund())
	}
}

func TestJumpAndLoop(t *testing.T) {
	// Sum 1..10 with a loop.
	got := runAsm(t, `
		PUSH1 0      ; sum
		PUSH1 10     ; i
	loop:
		JUMPDEST
		DUP1         ; i
		ISZERO
		PUSH @done
		JUMPI
		DUP1         ; [sum i i]
		SWAP2        ; [i i sum]
		ADD          ; [i sum']
		SWAP1        ; [sum' i]
		PUSH1 1
		SWAP1
		SUB          ; i-1
		PUSH @loop
		JUMP
	done:
		JUMPDEST
		POP
	`+ret32)
	if !got.Eq(uint256.NewInt(55)) {
		t.Fatalf("loop sum = %s, want 55", got.String())
	}
}

func TestInvalidJump(t *testing.T) {
	_, _, err, _ := runCode(t, asm.MustAssemble("PUSH1 3\nJUMP\nSTOP"), nil, 100000)
	if !errors.Is(err, evm.ErrInvalidJump) {
		t.Fatalf("err = %v, want invalid jump", err)
	}
	// Jumping into PUSH data is invalid even if the byte is 0x5b.
	code := []byte{byte(evm.PUSH1), 2, byte(evm.JUMP), byte(evm.PUSH1), byte(evm.JUMPDEST)}
	_, _, err, _ = runCode(t, code, nil, 100000)
	if !errors.Is(err, evm.ErrInvalidJump) {
		t.Fatalf("err = %v, want invalid jump into push data", err)
	}
}

func TestOutOfGasConsumesAll(t *testing.T) {
	_, gasUsed, err, _ := runCode(t, asm.MustAssemble(`
		PUSH1 1
		PUSH1 0
		SSTORE
	`), nil, 1000) // not enough for SSTORE
	if !errors.Is(err, evm.ErrOutOfGas) {
		t.Fatalf("err = %v", err)
	}
	if gasUsed != 1000 {
		t.Fatalf("gas used = %d, want all 1000", gasUsed)
	}
}

func TestStackErrors(t *testing.T) {
	_, _, err, _ := runCode(t, []byte{byte(evm.ADD)}, nil, 100000)
	if !errors.Is(err, evm.ErrStackUnderflow) {
		t.Fatalf("underflow err = %v", err)
	}
	var overflow bytes.Buffer
	for i := 0; i < 1025; i++ {
		overflow.WriteByte(byte(evm.PUSH0))
	}
	_, _, err, _ = runCode(t, overflow.Bytes(), nil, 100000)
	if !errors.Is(err, evm.ErrStackOverflow) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestInvalidOpcode(t *testing.T) {
	_, _, err, _ := runCode(t, []byte{0xef}, nil, 100000)
	if !errors.Is(err, evm.ErrInvalidOpcode) {
		t.Fatalf("err = %v", err)
	}
}

func TestRevertRefundsGasAndRollsBack(t *testing.T) {
	ret, gasUsed, err, o := runCode(t, asm.MustAssemble(`
		PUSH1 9
		PUSH1 1
		SSTORE       ; state write, must be rolled back
		PUSH1 0xEE
		PUSH1 0
		MSTORE8
		PUSH1 1
		PUSH1 0
		REVERT
	`), nil, 100_000)
	if !errors.Is(err, evm.ErrRevert) {
		t.Fatalf("err = %v", err)
	}
	if len(ret) != 1 || ret[0] != 0xEE {
		t.Fatalf("revert data = %x", ret)
	}
	if gasUsed >= 100_000 {
		t.Fatal("REVERT consumed all gas")
	}
	if v := o.GetState(contractAddr, types.BytesToHash([]byte{1})); !v.IsZero() {
		t.Fatal("state write survived revert")
	}
}

func TestCalldataOps(t *testing.T) {
	code := asm.MustAssemble(`
		PUSH1 0x00
		CALLDATALOAD
	` + ret32)
	input := make([]byte, 32)
	input[31] = 0x7b
	ret, _, err, _ := runCode(t, code, input, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var v uint256.Int
	v.SetBytes(ret)
	if !v.Eq(uint256.NewInt(0x7b)) {
		t.Fatalf("CALLDATALOAD got %s", v.String())
	}
	// CALLDATASIZE + CALLDATACOPY.
	code = asm.MustAssemble(`
		CALLDATASIZE
		PUSH1 0
		PUSH1 0
		CALLDATACOPY
		PUSH1 0x20
		PUSH1 0x00
		RETURN
	`)
	ret, _, err, _ = runCode(t, code, input, 100000)
	if err != nil || !bytes.Equal(ret, input) {
		t.Fatalf("CALLDATACOPY: %v %x", err, ret)
	}
}

func TestEnvironmentOps(t *testing.T) {
	got := runAsm(t, "ADDRESS"+ret32)
	w := contractAddr.Word()
	if !got.Eq(&w) {
		t.Fatal("ADDRESS")
	}
	got = runAsm(t, "CALLER"+ret32)
	w = callerAddr.Word()
	if !got.Eq(&w) {
		t.Fatal("CALLER")
	}
	got = runAsm(t, "NUMBER"+ret32)
	if !got.Eq(uint256.NewInt(1)) {
		t.Fatal("NUMBER")
	}
	got = runAsm(t, "TIMESTAMP"+ret32)
	if !got.Eq(uint256.NewInt(1000)) {
		t.Fatal("TIMESTAMP")
	}
	got = runAsm(t, "CHAINID"+ret32)
	if !got.Eq(uint256.NewInt(1)) {
		t.Fatal("CHAINID")
	}
	// BALANCE of the funded caller.
	got = runAsm(t, "CALLER\nBALANCE"+ret32)
	if !got.Eq(uint256.NewInt(1_000_000)) {
		t.Fatalf("BALANCE got %s", got.String())
	}
}

func TestLogs(t *testing.T) {
	_, _, err, o := runCode(t, asm.MustAssemble(`
		PUSH1 0xAB
		PUSH1 0x00
		MSTORE8
		PUSH1 0x77    ; topic
		PUSH1 1       ; size
		PUSH1 0       ; offset
		LOG1
	`), nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	logs := o.Logs()
	if len(logs) != 1 {
		t.Fatalf("%d logs", len(logs))
	}
	l := logs[0]
	if l.Address != contractAddr || len(l.Topics) != 1 ||
		l.Topics[0] != types.BytesToHash([]byte{0x77}) ||
		!bytes.Equal(l.Data, []byte{0xAB}) {
		t.Fatalf("log = %+v", l)
	}
}

func TestNestedCall(t *testing.T) {
	// Callee stores its CALLVALUE in slot 0 and returns 0x2A.
	calleeAddr := types.HexToAddress("0xbeef")
	callee := asm.MustAssemble(`
		CALLVALUE
		PUSH1 0
		SSTORE
		PUSH1 0x2A
		PUSH1 0
		MSTORE8
		PUSH1 1
		PUSH1 0
		RETURN
	`)
	// Caller contract calls callee with value 5 and returns the returned byte.
	caller := asm.MustAssemble(`
		PUSH1 1       ; outSize
		PUSH1 0       ; outOffset
		PUSH1 0       ; inSize
		PUSH1 0       ; inOffset
		PUSH1 5       ; value
		PUSH2 0xbeef  ; to
		PUSH3 0xffffff ; gas
		CALL
		POP
		PUSH1 1
		PUSH1 0
		RETURN
	`)
	base := state.NewGenesisBuilder().
		AddAccount(callerAddr, uint256.NewInt(1000)).
		AddContract(contractAddr, uint256.NewInt(100), caller, nil).
		AddContract(calleeAddr, uint256.NewInt(0), callee, nil).
		Build()
	o := state.NewOverlay(base, 0)
	e := evm.New(o, evm.BlockContext{Number: 1}, evm.TxContext{Origin: callerAddr})
	ret, _, err := e.Call(callerAddr, contractAddr, nil, 1_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ret) != 1 || ret[0] != 0x2A {
		t.Fatalf("ret = %x", ret)
	}
	if v := o.GetState(calleeAddr, types.Hash{}); !v.Eq(uint256.NewInt(5)) {
		t.Fatalf("callee stored value = %s", v.String())
	}
	bal := o.GetBalance(calleeAddr)
	if !bal.Eq(uint256.NewInt(5)) {
		t.Fatalf("callee balance = %s", bal.String())
	}
	bal = o.GetBalance(contractAddr)
	if !bal.Eq(uint256.NewInt(95)) {
		t.Fatalf("caller contract balance = %s", bal.String())
	}
}

func TestCallToRevertingCalleeRollsBackCalleeOnly(t *testing.T) {
	calleeAddr := types.HexToAddress("0xbeef")
	callee := asm.MustAssemble(`
		PUSH1 7
		PUSH1 0
		SSTORE
		PUSH1 0
		PUSH1 0
		REVERT
	`)
	caller := asm.MustAssemble(`
		PUSH1 1
		PUSH1 0
		SSTORE        ; caller's own write survives
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH2 0xbeef
		PUSH3 0xffffff
		CALL
	` + ret32)
	base := state.NewGenesisBuilder().
		AddAccount(callerAddr, uint256.NewInt(1000)).
		AddContract(contractAddr, uint256.NewInt(0), caller, nil).
		AddContract(calleeAddr, uint256.NewInt(0), callee, nil).
		Build()
	o := state.NewOverlay(base, 0)
	e := evm.New(o, evm.BlockContext{}, evm.TxContext{Origin: callerAddr})
	ret, _, err := e.Call(callerAddr, contractAddr, nil, 1_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	var success uint256.Int
	success.SetBytes(ret)
	if !success.IsZero() {
		t.Fatal("CALL to reverting callee reported success")
	}
	if v := o.GetState(calleeAddr, types.Hash{}); !v.IsZero() {
		t.Fatal("callee write survived")
	}
	if v := o.GetState(contractAddr, types.Hash{}); !v.Eq(uint256.NewInt(1)) {
		t.Fatal("caller write lost")
	}
}

func TestCallInsufficientBalance(t *testing.T) {
	caller := asm.MustAssemble(`
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH2 0x1000  ; value higher than balance
		PUSH2 0xbeef
		PUSH3 0xffffff
		CALL
	` + ret32)
	base := state.NewGenesisBuilder().
		AddAccount(callerAddr, uint256.NewInt(10)).
		AddContract(contractAddr, uint256.NewInt(1), caller, nil).
		Build()
	o := state.NewOverlay(base, 0)
	e := evm.New(o, evm.BlockContext{}, evm.TxContext{Origin: callerAddr})
	ret, _, err := e.Call(callerAddr, contractAddr, nil, 1_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	var success uint256.Int
	success.SetBytes(ret)
	if !success.IsZero() {
		t.Fatal("value transfer beyond balance succeeded")
	}
}

func TestGasAccountingExact(t *testing.T) {
	// PUSH1(3) PUSH1(3) ADD(3) POP(2) STOP(0) = 11
	_, gasUsed, err, _ := runCode(t, asm.MustAssemble("PUSH1 1\nPUSH1 2\nADD\nPOP\nSTOP"), nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if gasUsed != 11 {
		t.Fatalf("gas used = %d, want 11", gasUsed)
	}
}

func TestMemoryExpansionGas(t *testing.T) {
	// MSTORE at offset 0: 1 word = 3 linear + 0 quad.
	_, gasUsed, err, _ := runCode(t, asm.MustAssemble("PUSH1 1\nPUSH1 0\nMSTORE"), nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if gasUsed != 3+3+3+3 { // two pushes + MSTORE const + 1 word expansion
		t.Fatalf("gas used = %d", gasUsed)
	}
}

func TestPushPastCodeEnd(t *testing.T) {
	// PUSH2 with only one immediate byte: zero-padded on the right.
	code := []byte{byte(evm.PUSH1 + 1), 0xAB}
	base := state.NewGenesisBuilder().
		AddContract(contractAddr, uint256.NewInt(0), code, nil).
		Build()
	o := state.NewOverlay(base, 0)
	e := evm.New(o, evm.BlockContext{}, evm.TxContext{})
	if _, _, err := e.Call(callerAddr, contractAddr, nil, 1000, nil); err != nil {
		t.Fatalf("truncated PUSH failed: %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	// A contract that calls itself forever; must stop at the depth limit
	// without error at the top (inner failures just push 0).
	self := asm.MustAssemble(`
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		PUSH1 0
		ADDRESS
		GAS
		CALL
	` + ret32)
	base := state.NewGenesisBuilder().
		AddContract(contractAddr, uint256.NewInt(0), self, nil).
		Build()
	o := state.NewOverlay(base, 0)
	e := evm.New(o, evm.BlockContext{}, evm.TxContext{})
	if _, _, err := e.Call(callerAddr, contractAddr, nil, 10_000_000, nil); err != nil {
		t.Fatalf("recursion errored at top level: %v", err)
	}
}

func BenchmarkEVMLoop(b *testing.B) {
	code := asm.MustAssemble(`
		PUSH2 1000
	loop:
		JUMPDEST
		PUSH1 1
		SWAP1
		SUB
		DUP1
		PUSH @loop
		JUMPI
		STOP
	`)
	base := state.NewGenesisBuilder().
		AddContract(contractAddr, uint256.NewInt(0), code, nil).
		Build()
	blockCtx := evm.BlockContext{Number: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := state.NewOverlay(base, 0)
		e := evm.New(o, blockCtx, evm.TxContext{})
		if _, _, err := e.Call(callerAddr, contractAddr, nil, 10_000_000, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMemoryWordWalkGas grows memory one word at a time to 64 KiB. Memory
// capacity grows geometrically underneath; the gas charged must not notice.
func TestMemoryWordWalkGas(t *testing.T) {
	ret, gasUsed, err, _ := runCode(t, asm.MustAssemble(`
		PUSH1 0
	loop:
		JUMPDEST
		DUP1
		DUP1
		MSTORE            ; mem[off] = off
		PUSH1 32
		ADD
		DUP1
		PUSH3 0x010000
		GT                ; 64 KiB > off
		PUSH @loop
		JUMPI
		POP
		MSIZE
	`+ret32), nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var msize uint256.Int
	msize.SetBytes(ret)
	if msize.Uint64() != 65536 {
		t.Fatalf("MSIZE = %d, want 65536", msize.Uint64())
	}
	// 2048 iterations × 38 constant gas, 3·2048 + 2048²/512 expansion, 19
	// for prologue and epilogue: also what the interpreter charged when
	// resize still reallocated the whole store on every expansion.
	if want := uint64(2048*38 + 3*2048 + 2048*2048/512 + 19); gasUsed != want {
		t.Fatalf("gas used = %d, want %d", gasUsed, want)
	}
	// Every word must read back: growth may not drop or shift old contents.
	ret, _, err, _ = runCode(t, asm.MustAssemble(`
		PUSH1 0
	fill:
		JUMPDEST
		DUP1
		DUP1
		MSTORE
		PUSH1 32
		ADD
		DUP1
		PUSH3 0x010000
		GT
		PUSH @fill
		JUMPI
		POP
		PUSH1 0           ; [off]
		PUSH1 0           ; [sum off]
	sum:
		JUMPDEST
		DUP2
		MLOAD
		ADD               ; [sum+mem[off] off]
		SWAP1
		PUSH1 32
		ADD
		SWAP1             ; [sum off+32]
		DUP2
		PUSH3 0x010000
		GT
		PUSH @sum
		JUMPI
	`+ret32), nil, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint256.Int
	sum.SetBytes(ret)
	if want := uint64(32 * 2047 * 2048 / 2); sum.Uint64() != want {
		t.Fatalf("sum of stored words = %d, want %d", sum.Uint64(), want)
	}
}

func TestJumpdestInsidePushData(t *testing.T) {
	// pc 0: PUSH32 with an all-0x5b immediate (pc 1..32), pc 33: POP, then a
	// jump. Its only valid target is the real JUMPDEST that ends the code.
	prefix := append([]byte{byte(evm.PUSH32)}, bytes.Repeat([]byte{byte(evm.JUMPDEST)}, 32)...)
	prefix = append(prefix, byte(evm.POP))
	for _, taken := range []bool{false, true} {
		jump := func(dest byte) []byte {
			code := append([]byte{}, prefix...)
			if taken {
				return append(code, byte(evm.PUSH1), 1, byte(evm.PUSH1), dest, byte(evm.JUMPI), byte(evm.JUMPDEST))
			}
			return append(code, byte(evm.PUSH1), dest, byte(evm.JUMP), byte(evm.JUMPDEST))
		}
		for _, dest := range []byte{1, 16, 32} {
			if _, _, err, _ := runCode(t, jump(dest), nil, 100000); !errors.Is(err, evm.ErrInvalidJump) {
				t.Fatalf("JUMPI=%v into PUSH32 data byte %d: err = %v, want invalid jump", taken, dest, err)
			}
		}
		last := byte(len(jump(0)) - 1)
		if _, _, err, _ := runCode(t, jump(last), nil, 100000); err != nil {
			t.Fatalf("JUMPI=%v to the real JUMPDEST at %d: %v", taken, last, err)
		}
	}
}

// TestPushImmediateDistinguishesCode: two contracts whose code differs only
// inside a PUSH immediate must not share decoded immediates.
func TestPushImmediateDistinguishesCode(t *testing.T) {
	for _, want := range []uint64{0x1234, 0x1235} {
		code := append([]byte{byte(evm.PUSH1 + 1), byte(want >> 8), byte(want)}, asm.MustAssemble(ret32)...)
		ret, _, err, _ := runCode(t, code, nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		var got uint256.Int
		got.SetBytes(ret)
		if got.Uint64() != want {
			t.Fatalf("PUSH2 %#x returned %#x", want, got.Uint64())
		}
	}
}

func TestStackDepthBoundary(t *testing.T) {
	fill := func(n int) []byte { return bytes.Repeat([]byte{byte(evm.PUSH1), 0xAA}, n) }
	if _, _, err, _ := runCode(t, fill(1024), nil, 100000); err != nil {
		t.Fatalf("1024 pushes: %v", err)
	}
	if _, _, err, _ := runCode(t, fill(1025), nil, 100000); !errors.Is(err, evm.ErrStackOverflow) {
		t.Fatalf("1025 pushes: err = %v, want stack overflow", err)
	}
	// DUP at exactly the limit overflows too; one below it is fine.
	if _, _, err, _ := runCode(t, append(fill(1024), byte(evm.DUP1)), nil, 100000); !errors.Is(err, evm.ErrStackOverflow) {
		t.Fatalf("DUP1 at depth 1024: err = %v, want stack overflow", err)
	}
	if _, _, err, _ := runCode(t, append(fill(1023), byte(evm.DUP1)), nil, 100000); err != nil {
		t.Fatalf("DUP1 at depth 1023: %v", err)
	}
	// The frames above left 0xAA in every word of a recycled stack. A frame
	// that is 15 deep must still underflow on DUP16 and SWAP15, not read them.
	for _, op := range []evm.OpCode{evm.DUP1 + 15, evm.SWAP1 + 14} {
		code := append(bytes.Repeat([]byte{byte(evm.PUSH0)}, 15), byte(op))
		if _, _, err, _ := runCode(t, code, nil, 100000); !errors.Is(err, evm.ErrStackUnderflow) {
			t.Fatalf("%v at depth 15: err = %v, want stack underflow", op, err)
		}
	}
	// At depth 16 DUP16 reads this frame's bottom word, a zero.
	code := append(bytes.Repeat([]byte{byte(evm.PUSH0)}, 16), byte(evm.DUP1+15))
	ret, _, err, _ := runCode(t, append(code, asm.MustAssemble(ret32)...), nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ret, make([]byte, 32)) {
		t.Fatalf("DUP16 at depth 16 read %x, want zero", ret)
	}
}
