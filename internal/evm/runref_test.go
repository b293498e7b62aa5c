package evm

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Differential test of (*EVM).run against runRef (ref_test.go): random
// programs over the whole opcode table, each run by both loops at every gas
// limit that makes out-of-gas land on a different op, must agree on
// everything observable — return data, error, gas left in the frame, the
// operand stack, and the overlay's access set, change set, logs and refund,
// failed runs included (run itself rolls nothing back).

var (
	refSelf   = types.HexToAddress("0xa1")     // runs the program under test
	refCallee = types.HexToAddress("0xb2")     // holds the second program
	refEOA    = types.HexToAddress("0xe0a")    // funded, no code
	refCaller = types.HexToAddress("0xca11e4") // the frame's caller
)

// refCase is one program with the world it runs in.
type refCase struct {
	base     state.Reader
	code     []byte
	callee   []byte
	an       *analysis
	jumpdest []bool
	input    []byte
	value    uint256.Int
	readOnly bool
}

func newRefCase(code, callee, input []byte, readOnly bool) *refCase {
	storage := map[types.Hash]uint256.Int{
		types.WordToHash(uint256.NewInt(1)): *uint256.NewInt(7),
		types.WordToHash(uint256.NewInt(2)): *uint256.NewInt(9),
	}
	base := state.NewGenesisBuilder().
		AddAccount(refCaller, uint256.NewInt(1_000_000)).
		AddAccount(refEOA, uint256.NewInt(5)).
		AddContract(refSelf, uint256.NewInt(1000), code, storage).
		AddContract(refCallee, uint256.NewInt(50), callee, storage).
		Build()
	c := &refCase{base: base, code: code, callee: callee, an: analyse(code), input: input, readOnly: readOnly}
	c.jumpdest = newRefFrame(&frame{code: code}).jumpdest
	c.value.SetUint64(3)
	return c
}

// outcome is everything one run leaves behind.
type outcome struct {
	ret     []byte
	err     error
	gasLeft uint64
	stack   *Stack
	height  int // of stack; known for the reference loop only
	ov      *state.Overlay
}

func (c *refCase) exec(gas uint64, ref bool) outcome {
	ov := state.NewOverlay(c.base, 0)
	e := New(ov, BlockContext{Coinbase: refEOA, Number: 5, Time: 1000, GasLimit: 1 << 24, ChainID: 1},
		TxContext{Origin: refCaller, GasPrice: *uint256.NewInt(2)})
	e.depth = 1
	f := &frame{address: refSelf, caller: refCaller, value: c.value, input: c.input,
		code: c.code, an: c.an, gas: gas, mem: newMemory(), readOnly: c.readOnly}
	out := outcome{ov: ov}
	if ref {
		out.ret, out.err = e.runRef(&refFrame{frame: f, jumpdest: c.jumpdest})
		out.height = f.stack.n
	} else {
		out.ret, out.err = e.run(f)
	}
	out.gasLeft, out.stack = f.gas, f.stack
	return out
}

// check runs the case at one gas limit through both loops, fails the test on
// any difference and returns the gas left in the frame.
func (c *refCase) check(t *testing.T, gas uint64) uint64 {
	t.Helper()
	want := c.exec(gas, true)
	// The stack went back to the pool when runRef returned and run may draw
	// the same one: keep the reference's words.
	wantStack := slices.Clone(want.stack.data[:want.height])
	got := c.exec(gas, false)
	switch {
	case got.err != want.err:
		t.Fatalf("gas %d: err %v, reference %v\ncode %x", gas, got.err, want.err, c.code)
	case !bytes.Equal(got.ret, want.ret):
		t.Fatalf("gas %d: ret %x, reference %x\ncode %x", gas, got.ret, want.ret, c.code)
	case got.gasLeft != want.gasLeft:
		t.Fatalf("gas %d: gas left %d, reference %d\ncode %x", gas, got.gasLeft, want.gasLeft, c.code)
	case want.err == nil && !slices.Equal(got.stack.data[:want.height], wantStack):
		t.Fatalf("gas %d: final stack differs from the reference's %d words\ncode %x", gas, want.height, c.code)
	case !reflect.DeepEqual(got.ov.Access(), want.ov.Access()):
		t.Fatalf("gas %d: access set %+v, reference %+v\ncode %x", gas, got.ov.Access(), want.ov.Access(), c.code)
	case !reflect.DeepEqual(got.ov.ChangeSet(), want.ov.ChangeSet()):
		t.Fatalf("gas %d: change set differs from the reference's\ncode %x", gas, c.code)
	case !reflect.DeepEqual(got.ov.Logs(), want.ov.Logs()):
		t.Fatalf("gas %d: logs differ from the reference's\ncode %x", gas, c.code)
	case got.ov.GetRefund() != want.ov.GetRefund():
		t.Fatalf("gas %d: refund %d, reference %d\ncode %x", gas, got.ov.GetRefund(), want.ov.GetRefund(), c.code)
	}
	return want.gasLeft
}

// refGasCeiling is the limit the program's full cost is measured under; the
// generator's loops are bounded and CALL forwards at most 63/64, so programs
// that consume all of it are rare and merely swept from there.
const refGasCeiling = 400_000

// sweep checks the case at every gas limit that matters. The full cost is
// what the program consumes under refGasCeiling; when it is small every
// limit from 0 to it is run. Otherwise the sweep walks down from it: a run
// at limit g that stops with r gas left stops at the same op for every limit
// in [g-r, g], so g-r (no slack) and g-r-1 (stops one op earlier) come next —
// out-of-gas lands on each op the program executes, with and without slack.
// The walk ends at limit 0 or once the limits it ran add up to budget, which
// only programs that loop or recurse until the ceiling reach.
func (c *refCase) sweep(t *testing.T, budget uint64) {
	t.Helper()
	full := refGasCeiling - c.check(t, refGasCeiling)
	if full <= 1500 {
		for g := uint64(0); g <= full; g++ {
			c.check(t, g)
		}
		return
	}
	for g, spent := full, uint64(0); spent < budget; spent += g {
		left := c.check(t, g)
		if g == 0 {
			return
		}
		g -= min(g, max(left, 1))
	}
}

// progGen writes a random program. It keeps a running estimate of the stack
// height so that most ops find their operands and the program gets far; the
// estimate is exact on straight-line code and a guess after jumps.
type progGen struct {
	r      *rand.Rand
	code   []byte
	height int
}

func (g *progGen) op(op OpCode, pops, pushes int) {
	g.code = append(g.code, byte(op))
	g.height = max(g.height-pops, 0) + pushes
}

// pushBytes emits PUSHn with the given immediate.
func (g *progGen) pushBytes(imm []byte) {
	g.op(PUSH1+OpCode(len(imm)-1), 0, 1)
	g.code = append(g.code, imm...)
}

// push emits the shortest PUSH of v (PUSH1 0 for zero).
func (g *progGen) push(v uint64) {
	imm := uint256.NewInt(v).Bytes()
	if len(imm) == 0 {
		imm = []byte{0}
	}
	g.pushBytes(imm)
}

// pushWord emits a PUSH of random width and content.
func (g *progGen) pushWord() {
	switch g.r.Intn(4) {
	case 0:
		g.push(uint64(g.r.Intn(4)))
	case 1:
		g.push(g.r.Uint64())
	default:
		imm := make([]byte, 1+g.r.Intn(32))
		g.r.Read(imm)
		g.pushBytes(imm)
	}
}

// need pushes words until the estimated height is n — except once in a
// while, so that underflow happens too.
func (g *progGen) need(n int) {
	if g.r.Intn(400) == 0 {
		return
	}
	for g.height < n {
		g.pushWord()
	}
}

// pushLabel emits PUSH2 with room for a code offset and returns where to
// patch it.
func (g *progGen) pushLabel() int {
	g.pushBytes([]byte{0, 0})
	return len(g.code) - 2
}

func (g *progGen) patch(at, target int) {
	g.code[at], g.code[at+1] = byte(target>>8), byte(target)
}

func (g *progGen) pushAddress() {
	addrs := []types.Address{refCallee, refCallee, refEOA, refSelf, types.HexToAddress("0xdead")}
	a := addrs[g.r.Intn(len(addrs))]
	g.pushBytes(a[:])
}

var (
	refStackOps = []struct {
		op   OpCode
		pops int
	}{
		{ADD, 2}, {MUL, 2}, {SUB, 2}, {DIV, 2}, {SDIV, 2}, {MOD, 2}, {SMOD, 2}, {ADDMOD, 3}, {MULMOD, 3},
		{EXP, 2}, {SIGNEXTEND, 2}, {LT, 2}, {GT, 2}, {SLT, 2}, {SGT, 2}, {EQ, 2}, {ISZERO, 1}, {AND, 2},
		{OR, 2}, {XOR, 2}, {NOT, 1}, {BYTE, 2}, {SHL, 2}, {SHR, 2}, {SAR, 2},
	}
	refEnvOps = []OpCode{ADDRESS, ORIGIN, CALLER, CALLVALUE, CALLDATASIZE, CODESIZE, GASPRICE,
		RETURNDATASIZE, COINBASE, TIMESTAMP, NUMBER, GASLIMIT, CHAINID, SELFBALANCE, PC, MSIZE, GAS, PUSH0}
	refAddrOps = []OpCode{BALANCE, EXTCODESIZE, EXTCODEHASH}
	refCopyOps = []OpCode{CALLDATACOPY, CODECOPY, RETURNDATACOPY}
	refCallOps = []OpCode{CALL, CALL, STATICCALL, DELEGATECALL}
)

// balanced emits a few ops that leave the stack as they found it (loop body).
func (g *progGen) balanced() {
	for n := g.r.Intn(3); n > 0; n-- {
		switch g.r.Intn(4) {
		case 0:
			g.pushWord()
			g.pushWord()
			so := refStackOps[g.r.Intn(len(refStackOps))]
			for so.pops != 2 {
				so = refStackOps[g.r.Intn(len(refStackOps))]
			}
			g.op(so.op, 2, 1)
			g.op(POP, 1, 0)
		case 1:
			g.push(uint64(g.r.Intn(3)))
			g.op(SLOAD, 1, 1)
			g.op(POP, 1, 0)
		case 2:
			g.push(uint64(g.r.Intn(96)))
			g.op(MLOAD, 1, 1)
			g.op(POP, 1, 0)
		default:
			g.op(JUMPDEST, 0, 0)
		}
	}
}

// snippet emits one random piece of program.
func (g *progGen) snippet() {
	r := g.r
	switch p := r.Intn(1000); {
	case p < 170:
		g.pushWord()
	case p < 370:
		so := refStackOps[r.Intn(len(refStackOps))]
		g.need(so.pops)
		g.op(so.op, so.pops, 1)
	case p < 450: // DUPn, mostly within the stack
		n := 1 + r.Intn(16)
		if r.Intn(150) != 0 {
			n = 1 + r.Intn(min(max(g.height, 1), 16))
			g.need(n)
		}
		g.op(DUP1+OpCode(n-1), n, n+1)
	case p < 520: // SWAPn, likewise
		n := 1 + r.Intn(16)
		if r.Intn(150) != 0 {
			n = 1 + r.Intn(min(max(g.height-1, 1), 16))
			g.need(n + 1)
		}
		g.op(SWAP1+OpCode(n-1), n+1, n+1)
	case p < 560:
		g.need(1)
		g.op(POP, 1, 0)
	case p < 620: // memory
		switch r.Intn(3) {
		case 0:
			g.need(1)
			g.push(uint64(r.Intn(200)))
			g.op(MSTORE, 2, 0)
		case 1:
			g.need(1)
			g.push(uint64(r.Intn(200)))
			g.op(MSTORE8, 2, 0)
		default:
			g.push(uint64(r.Intn(200)))
			g.op(MLOAD, 1, 1)
		}
	case p < 640:
		g.push(uint64(r.Intn(70)))
		g.push(uint64(r.Intn(100)))
		g.op(SHA3, 2, 1)
	case p < 680:
		g.push(uint64(r.Intn(4)))
		g.op(SLOAD, 1, 1)
	case p < 710: // SSTORE of zero, a small value or whatever is on the stack
		if r.Intn(3) == 0 {
			g.need(1)
		} else {
			g.push(uint64(r.Intn(3)))
		}
		g.push(uint64(r.Intn(4)))
		g.op(SSTORE, 2, 0)
	case p < 730:
		topics := r.Intn(5)
		g.need(topics)
		g.push(uint64(r.Intn(40)))
		g.push(uint64(r.Intn(100)))
		g.op(LOG0+OpCode(topics), 2+topics, 0)
	case p < 770: // a call into the second contract, an account without code, or itself
		op := refCallOps[r.Intn(len(refCallOps))]
		g.push(uint64(r.Intn(40)))  // out size
		g.push(uint64(r.Intn(100))) // out offset
		g.push(uint64(r.Intn(40)))  // in size
		g.push(uint64(r.Intn(100))) // in offset
		args := 6
		if op == CALL {
			value := 0
			if r.Intn(3) == 0 {
				value = r.Intn(4)
			}
			g.push(uint64(value))
			args = 7
		}
		g.pushAddress()
		switch r.Intn(3) {
		case 0:
			g.push(uint64(r.Intn(3000)))
		case 1:
			g.op(GAS, 0, 1)
		default:
			g.pushWord()
		}
		g.op(op, args, 1)
	case p < 810:
		g.op(refEnvOps[r.Intn(len(refEnvOps))], 0, 1)
	case p < 830:
		g.pushAddress()
		g.op(refAddrOps[r.Intn(len(refAddrOps))], 1, 1)
	case p < 845:
		g.push(uint64(r.Intn(80)))
		g.op(CALLDATALOAD, 1, 1)
	case p < 865:
		op := refCopyOps[r.Intn(len(refCopyOps))]
		size, src := r.Intn(40), r.Intn(60)
		if op == RETURNDATACOPY && r.Intn(4) != 0 {
			size, src = 0, 0 // anything more is out of bounds unless a call returned data
		}
		g.push(uint64(size))
		g.push(uint64(src))
		g.push(uint64(r.Intn(100))) // memory offset
		g.op(op, 3, 0)
	case p < 872:
		g.push(uint64(r.Intn(40)))
		g.push(uint64(r.Intn(60)))
		g.push(uint64(r.Intn(100)))
		g.pushAddress()
		g.op(EXTCODECOPY, 4, 0)
	case p < 912: // forward jump over a few bytes that may hold a 0x5b, bare or as PUSH data
		conditional := r.Intn(2) == 0
		if conditional {
			g.push(uint64(r.Intn(2)))
		}
		at := g.pushLabel()
		if conditional {
			g.op(JUMPI, 2, 0)
		} else {
			g.op(JUMP, 1, 0)
		}
		junk := [][]byte{{}, {byte(JUMPDEST)}, {byte(PUSH1), byte(JUMPDEST), byte(POP)}, {byte(GAS), byte(POP)}, {byte(PUSH1 + 1), 0x5b, 0x5b, byte(POP)}}
		g.code = append(g.code, junk[r.Intn(len(junk))]...)
		g.patch(at, len(g.code))
		g.op(JUMPDEST, 0, 0)
	case p < 932: // bounded loop: counter on the stack, balanced body
		g.push(uint64(1 + r.Intn(4)))
		top := len(g.code)
		g.op(JUMPDEST, 0, 0)
		g.balanced()
		g.push(1)
		g.op(SWAP1, 2, 2)
		g.op(SUB, 2, 1)
		g.op(DUP1, 1, 2)
		g.patch(g.pushLabel(), top)
		g.op(JUMPI, 2, 0)
		g.op(POP, 1, 0)
	case p < 952:
		g.op(JUMPDEST, 0, 0)
	case p < 956: // jump to a 0x5b inside PUSH data, or anywhere
		at := g.pushLabel()
		g.op(JUMP, 1, 0)
		if r.Intn(2) == 0 {
			g.patch(at, len(g.code)+1)
			g.pushBytes([]byte{byte(JUMPDEST)})
		} else {
			g.patch(at, r.Intn(len(g.code)+8))
		}
	case p < 960: // pop below zero in the middle of a segment
		for n := g.height + 1 + r.Intn(3); n > 0; n-- {
			g.op(POP, 1, 0)
		}
	case p < 964: // push past the stack limit in the middle of a segment
		g.need(1)
		for g.height <= stackLimit+2 {
			switch r.Intn(3) {
			case 0:
				g.op(DUP1, 1, 2)
			case 1:
				g.push(uint64(r.Intn(256)))
			default:
				g.op(JUMPDEST, 0, 0) // so that some segment's peak is exactly the limit
			}
		}
	case p < 969:
		g.code = append(g.code, byte(r.Intn(256))) // any byte, undefined opcodes included
	case p < 977: // CREATE / CREATE2 from whatever memory holds
		op, args := CREATE, 3
		if r.Intn(2) == 0 {
			op, args = CREATE2, 4
			g.pushWord() // salt
		}
		g.push(uint64(r.Intn(20)))
		g.push(uint64(r.Intn(60)))
		g.push(0)
		g.op(op, args, 1)
	case p < 995:
		g.op(JUMPDEST, 0, 0)
	default: // an early end
		switch r.Intn(4) {
		case 0:
			g.op(STOP, 0, 0)
		case 1:
			g.op(INVALID, 0, 0)
		default:
			g.push(uint64(r.Intn(64)))
			g.push(uint64(r.Intn(64)))
			g.op([]OpCode{RETURN, REVERT}[r.Intn(2)], 2, 0)
		}
	}
}

// genProgram returns a random program of about n snippets and one of the
// ways a program can end.
func genProgram(r *rand.Rand, n int) []byte {
	g := &progGen{r: r}
	for i := 0; i < n; i++ {
		g.snippet()
	}
	switch r.Intn(10) {
	default: // run off the end
	case 0, 1, 2: // return the top of the stack
		g.need(1)
		g.push(0)
		g.op(MSTORE, 2, 0)
		g.push(32)
		g.push(0)
		g.op(RETURN, 2, 0)
	case 3, 4: // PUSHn with fewer than n bytes left
		n := 2 + r.Intn(31)
		g.op(PUSH1+OpCode(n-1), 0, 1)
		imm := make([]byte, r.Intn(n))
		r.Read(imm)
		g.code = append(g.code, imm...)
	case 5:
		g.op(STOP, 0, 0)
	case 6: // a segment ended by JUMP with nothing after it
		g.patch(g.pushLabel(), r.Intn(len(g.code)))
		g.op(JUMP, 1, 0)
	}
	return g.code
}

func genCase(r *rand.Rand) *refCase {
	input := make([]byte, r.Intn(70))
	r.Read(input)
	return newRefCase(genProgram(r, 2+r.Intn(40)), genProgram(r, 1+r.Intn(12)), input, r.Intn(8) == 0)
}

// TestRunMatchesReference sweeps random programs, and the workload's spin
// loop, over their gas limits.
func TestRunMatchesReference(t *testing.T) {
	programs := 300
	if testing.Short() || raceEnabled {
		programs = 60
	}
	for seed := int64(0); seed < int64(programs); seed++ {
		genCase(rand.New(rand.NewSource(seed))).sweep(t, 64*refGasCeiling)
	}
	input := make([]byte, 96)
	input[95] = 3
	newRefCase(spinLoopCode, nil, input, false).sweep(t, 64*refGasCeiling)
}

// FuzzRunVsReference hands the fuzzer the raw bytes of both programs, the
// calldata and a gas limit; generated programs seed the corpus. Each input is
// compared at that limit and over a short sweep.
func FuzzRunVsReference(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		c := genCase(rand.New(rand.NewSource(1000 + seed)))
		f.Add(c.code, c.callee, c.input, uint32(seed*97), c.readOnly)
	}
	f.Add(spinLoopCode, []byte{}, append(make([]byte, 95), 5), uint32(700), false)
	f.Fuzz(func(t *testing.T, code, callee, input []byte, gas uint32, readOnly bool) {
		if len(code) > 4096 || len(callee) > 4096 {
			t.Skip()
		}
		c := newRefCase(code, callee, input, readOnly)
		c.check(t, uint64(gas)%refGasCeiling)
		c.sweep(t, 4*refGasCeiling)
	})
}
