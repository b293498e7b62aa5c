package evm

import (
	"errors"

	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Execution errors. ErrRevert is special: it refunds remaining gas and
// carries return data; every other error consumes all gas in the frame.
var (
	ErrOutOfGas            = errors.New("evm: out of gas")
	ErrStackUnderflow      = errors.New("evm: stack underflow")
	ErrStackOverflow       = errors.New("evm: stack overflow")
	ErrInvalidJump         = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode       = errors.New("evm: invalid opcode")
	ErrRevert              = errors.New("evm: execution reverted")
	ErrDepth               = errors.New("evm: max call depth exceeded")
	ErrInsufficientBalance = errors.New("evm: insufficient balance for transfer")
	ErrReturnDataOOB       = errors.New("evm: return data out of bounds")
	ErrGasUintOverflow     = errors.New("evm: gas uint64 overflow")
	ErrWriteProtection     = errors.New("evm: write protection (static call)")
	ErrCodeSizeExceeded    = errors.New("evm: max code size exceeded")
	ErrCodeStoreOutOfGas   = errors.New("evm: contract creation code storage out of gas")
	ErrContractCollision   = errors.New("evm: contract address collision")
)

// MaxCodeSize is the EIP-170 deployed-code limit.
const MaxCodeSize = 24576

// MaxCallDepth is the maximum nesting of CALL frames.
const MaxCallDepth = 1024

// StateDB is the state surface the EVM executes against. state.Overlay
// implements it; the overlay records the access set BlockPilot's concurrency
// control relies on.
type StateDB interface {
	GetBalance(types.Address) uint256.Int
	AddBalance(types.Address, *uint256.Int)
	SubBalance(types.Address, *uint256.Int)
	GetNonce(types.Address) uint64
	SetNonce(types.Address, uint64)
	GetCode(types.Address) []byte
	GetCodeHash(types.Address) types.Hash
	GetCodeSize(types.Address) int
	SetCode(types.Address, []byte)
	GetState(types.Address, types.Hash) uint256.Int
	SetState(types.Address, types.Hash, uint256.Int)
	Exists(types.Address) bool
	AddLog(*types.Log)
	AddRefund(uint64)
	SubRefund(uint64)
	GetRefund() uint64
	Snapshot() int
	RevertToSnapshot(int)
}

// BlockContext carries block-level execution environment values.
type BlockContext struct {
	Coinbase types.Address
	Number   uint64
	Time     uint64
	GasLimit uint64
	ChainID  uint64
}

// TxContext carries transaction-level environment values.
type TxContext struct {
	Origin   types.Address
	GasPrice uint256.Int
}

// EVM executes bytecode against a StateDB within block and tx contexts.
// One EVM value serves one transaction; it is not goroutine-safe.
type EVM struct {
	State StateDB
	Block BlockContext
	Tx    TxContext
	depth int
	// ReadCoinbase records that the execution ran COINBASE: the one block
	// context field in which same-parent sibling blocks differ.
	ReadCoinbase bool
}

// New returns an EVM for one transaction.
func New(state StateDB, block BlockContext, tx TxContext) *EVM {
	return &EVM{State: state, Block: block, Tx: tx}
}

// frame is one call frame.
type frame struct {
	address  types.Address // storage/code context
	caller   types.Address
	value    uint256.Int
	input    []byte
	code     []byte
	an       *analysis // of code
	gas      uint64
	stack    *Stack
	mem      *Memory
	ret      []byte // payload set by RETURN / REVERT
	retData  []byte // return data of the most recent inner call
	readOnly bool   // STATICCALL context: state mutation forbidden
}

// useGas deducts amount, reporting false on exhaustion.
func (f *frame) useGas(amount uint64) bool {
	if f.gas < amount {
		return false
	}
	f.gas -= amount
	return true
}

// Call transfers value from caller to to and executes to's code with the
// given input and gas. It returns the output, the unused gas, and an error;
// on any error other than ErrRevert the gas is fully consumed and all state
// effects of the frame are rolled back.
func (e *EVM) Call(caller, to types.Address, input []byte, gas uint64, value *uint256.Int) (ret []byte, gasLeft uint64, err error) {
	return e.call(caller, to, input, gas, value, false)
}

// StaticCall executes to's code in read-only mode: any state mutation in
// the frame (or below it) fails with ErrWriteProtection.
func (e *EVM) StaticCall(caller, to types.Address, input []byte, gas uint64) (ret []byte, gasLeft uint64, err error) {
	return e.call(caller, to, input, gas, nil, true)
}

func (e *EVM) call(caller, to types.Address, input []byte, gas uint64, value *uint256.Int, readOnly bool) (ret []byte, gasLeft uint64, err error) {
	if e.depth >= MaxCallDepth {
		return nil, gas, ErrDepth
	}
	snapshot := e.State.Snapshot()
	if value != nil && !value.IsZero() {
		bal := e.State.GetBalance(caller)
		if bal.Lt(value) {
			return nil, gas, ErrInsufficientBalance
		}
		e.State.SubBalance(caller, value)
		e.State.AddBalance(to, value)
	}
	code := e.State.GetCode(to)
	if len(code) == 0 {
		return nil, gas, nil
	}
	f := &frame{
		address:  to,
		caller:   caller,
		input:    input,
		code:     code,
		an:       analysisFor(e.State.GetCodeHash(to), code),
		gas:      gas,
		mem:      newMemory(),
		readOnly: readOnly,
	}
	if value != nil {
		f.value = *value
	}
	e.depth++
	ret, err = e.run(f)
	e.depth--
	gasLeft = f.gas
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		if !errors.Is(err, ErrRevert) {
			gasLeft = 0
		}
	}
	return ret, gasLeft, err
}

// delegateCall runs to's code in the PARENT's context: storage address,
// caller and value all stay the parent's (library-call semantics).
func (e *EVM) delegateCall(parent *frame, to types.Address, input []byte, gas uint64) (ret []byte, gasLeft uint64, err error) {
	if e.depth >= MaxCallDepth {
		return nil, gas, ErrDepth
	}
	snapshot := e.State.Snapshot()
	code := e.State.GetCode(to)
	if len(code) == 0 {
		return nil, gas, nil
	}
	f := &frame{
		address:  parent.address,
		caller:   parent.caller,
		value:    parent.value,
		input:    input,
		code:     code,
		an:       analysisFor(e.State.GetCodeHash(to), code),
		gas:      gas,
		mem:      newMemory(),
		readOnly: parent.readOnly,
	}
	e.depth++
	ret, err = e.run(f)
	e.depth--
	gasLeft = f.gas
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		if !errors.Is(err, ErrRevert) {
			gasLeft = 0
		}
	}
	return ret, gasLeft, err
}

// Create deploys a contract: the init code runs in a fresh frame and its
// return data becomes the deployed code. The address follows Ethereum's
// keccak(rlp([caller, nonce])) rule; the caller's nonce is consumed even if
// deployment fails.
func (e *EVM) Create(caller types.Address, initCode []byte, gas uint64, value *uint256.Int) (ret []byte, addr types.Address, gasLeft uint64, err error) {
	nonce := e.State.GetNonce(caller)
	addr = types.CreateAddress(caller, nonce)
	// The creator's nonce is consumed regardless of the outcome.
	e.State.SetNonce(caller, nonce+1)
	return e.CreateAt(caller, initCode, gas, value, addr)
}

// Create2 deploys at keccak(0xff ++ caller ++ salt ++ keccak(init))[12:].
func (e *EVM) Create2(caller types.Address, initCode []byte, salt types.Hash, gas uint64, value *uint256.Int) (ret []byte, addr types.Address, gasLeft uint64, err error) {
	addr = types.Create2Address(caller, salt, initCode)
	e.State.SetNonce(caller, e.State.GetNonce(caller)+1)
	return e.CreateAt(caller, initCode, gas, value, addr)
}

// CreateAt deploys init code at a pre-computed address. The caller's nonce
// must already be accounted for (deployment transactions bump it as part of
// normal transaction processing; the CREATE/CREATE2 opcodes bump it in
// their wrappers above).
func (e *EVM) CreateAt(caller types.Address, initCode []byte, gas uint64, value *uint256.Int, addr types.Address) ([]byte, types.Address, uint64, error) {
	if e.depth >= MaxCallDepth {
		return nil, addr, gas, ErrDepth
	}
	if value != nil && !value.IsZero() {
		bal := e.State.GetBalance(caller)
		if bal.Lt(value) {
			return nil, addr, gas, ErrInsufficientBalance
		}
	}
	// Address collision: an account with code or a used nonce blocks deploy.
	if e.State.GetCodeSize(addr) != 0 || e.State.GetNonce(addr) != 0 {
		return nil, addr, 0, ErrContractCollision
	}

	snapshot := e.State.Snapshot()
	e.State.SetNonce(addr, 1) // EIP-161: new contracts start at nonce 1
	if value != nil && !value.IsZero() {
		e.State.SubBalance(caller, value)
		e.State.AddBalance(addr, value)
	}
	f := &frame{
		address: addr,
		caller:  caller,
		input:   nil,
		code:    initCode,
		an:      analyse(initCode), // runs once: not worth a cache entry
		gas:     gas,
		mem:     newMemory(),
	}
	if value != nil {
		f.value = *value
	}
	e.depth++
	ret, err := e.run(f)
	e.depth--
	gasLeft := f.gas

	if err == nil {
		switch {
		case len(ret) > MaxCodeSize:
			err = ErrCodeSizeExceeded
		case !f.useGas(uint64(len(ret)) * GasCodeDeposit):
			err = ErrCodeStoreOutOfGas
		default:
			e.State.SetCode(addr, ret)
			gasLeft = f.gas
		}
	}
	if err != nil {
		e.State.RevertToSnapshot(snapshot)
		gasLeft = f.gas
		if !errors.Is(err, ErrRevert) {
			gasLeft = 0
		}
		return ret, addr, gasLeft, err
	}
	return ret, addr, gasLeft, nil
}

// checkOp is the per-op check of an op that no segment entry check covered:
// it charges the op's gas and sizes memory for it, or returns the error the
// op fails with before executing. f.stack.n must be current.
func (e *EVM) checkOp(f *frame, oper *operation) error {
	if !oper.defined() {
		return ErrInvalidOpcode
	}
	if f.stack.n < oper.minStack {
		return ErrStackUnderflow
	}
	if f.stack.n > oper.maxStack {
		return ErrStackOverflow
	}
	if !f.useGas(oper.constantGas) {
		return ErrOutOfGas
	}
	var memSize uint64
	if oper.memorySize != nil {
		ms, overflow := oper.memorySize(f)
		if overflow {
			return ErrGasUintOverflow
		}
		memSize = ms
	}
	if oper.dynamicGas != nil {
		dg, overflow := oper.dynamicGas(e, f, memSize)
		if overflow || !f.useGas(dg) {
			return ErrOutOfGas
		}
	}
	if memSize > 0 {
		f.mem.resize(memSize)
	}
	return nil
}

// run executes the frame to completion on a pooled operand stack, which
// goes back to the pool on every exit path.
//
// Gas and both stack bounds are checked once per segment (see segment): when
// the entry check of the segment starting at pc passes, its ops run with no
// check of their own until pc reaches its end. Every op outside a segment,
// and every op of a segment whose entry check failed, goes through checkOp
// instead, so the op that fails, its error and every effect before it are
// those of checking each op.
//
// The opcodes that only compute on stack words are cases of the dispatch
// switch, working on the stack array with pc and the stack height in locals;
// the rest go through jumpTable with the stack's own height synced around
// the call. The cases up to PUSH0 are dense enough in opcode space for the
// switch to compile to a jump table, which the three wide families would
// thin out: they are told apart by range in the default arm.
func (e *EVM) run(f *frame) ([]byte, error) {
	st := newStack()
	f.stack = st
	defer st.release()
	var (
		code   = f.code
		an     = f.an
		stack  = &st.data
		sp     int    // stack height; st.n is stale between syncs
		pc     uint64 // of the op being dispatched
		segEnd uint64 // ops at pc < segEnd passed their segment's entry check
		push   uint32 // index in an.pushes of the next PUSH's immediate
	)
	for {
		if pc >= segEnd {
			if pc >= uint64(len(code)) {
				return nil, nil // implicit STOP
			}
			var seg *segment
			if s := an.slot[pc] & segIndexMask; s != 0 {
				seg = &an.segs[s-1]
				push = seg.push
			}
			if seg != nil && sp >= int(seg.need) && sp+int(seg.peak) <= stackLimit && f.useGas(seg.gas) {
				segEnd = uint64(seg.end)
			} else {
				st.n = sp
				if err := e.checkOp(f, &jumpTable[code[pc]]); err != nil {
					return nil, err
				}
			}
		}
		switch op := OpCode(code[pc]); op {
		case STOP:
			return nil, nil
		case ADD:
			sp--
			stack[sp-1].Add(&stack[sp], &stack[sp-1])
		case MUL:
			sp--
			stack[sp-1].Mul(&stack[sp], &stack[sp-1])
		case SUB:
			sp--
			stack[sp-1].Sub(&stack[sp], &stack[sp-1])
		case DIV:
			sp--
			stack[sp-1].Div(&stack[sp], &stack[sp-1])
		case SDIV:
			sp--
			stack[sp-1].SDiv(&stack[sp], &stack[sp-1])
		case MOD:
			sp--
			stack[sp-1].Mod(&stack[sp], &stack[sp-1])
		case SMOD:
			sp--
			stack[sp-1].SMod(&stack[sp], &stack[sp-1])
		case ADDMOD:
			sp -= 2
			stack[sp-1].AddMod(&stack[sp+1], &stack[sp], &stack[sp-1])
		case MULMOD:
			sp -= 2
			stack[sp-1].MulMod(&stack[sp+1], &stack[sp], &stack[sp-1])
		case EXP:
			sp--
			stack[sp-1].Exp(&stack[sp], &stack[sp-1])
		case SIGNEXTEND:
			sp--
			stack[sp-1].SignExtend(&stack[sp], &stack[sp-1])
		case LT:
			sp--
			boolWord(&stack[sp-1], stack[sp].Lt(&stack[sp-1]))
		case GT:
			sp--
			boolWord(&stack[sp-1], stack[sp].Gt(&stack[sp-1]))
		case SLT:
			sp--
			boolWord(&stack[sp-1], stack[sp].Slt(&stack[sp-1]))
		case SGT:
			sp--
			boolWord(&stack[sp-1], stack[sp].Sgt(&stack[sp-1]))
		case EQ:
			sp--
			boolWord(&stack[sp-1], stack[sp] == stack[sp-1])
		case ISZERO:
			boolWord(&stack[sp-1], stack[sp-1].IsZero())
		case AND:
			sp--
			stack[sp-1].And(&stack[sp], &stack[sp-1])
		case OR:
			sp--
			stack[sp-1].Or(&stack[sp], &stack[sp-1])
		case XOR:
			sp--
			stack[sp-1].Xor(&stack[sp], &stack[sp-1])
		case NOT:
			stack[sp-1].Not(&stack[sp-1])
		case BYTE:
			sp--
			stack[sp-1].Byte(&stack[sp], &stack[sp-1])
		case SHL, SHR, SAR:
			sp--
			x, n := &stack[sp-1], uint(256) // shifts of 256 and more all give the same word
			if shift := &stack[sp]; shift.IsUint64() && shift.Uint64() < 256 {
				n = uint(shift.Uint64())
			}
			switch op {
			case SHL:
				x.Lsh(x, n)
			case SHR:
				x.Rsh(x, n)
			default:
				x.SRsh(x, n)
			}
		case POP:
			sp--
		case JUMP, JUMPI:
			sp--
			dest := &stack[sp]
			if op == JUMPI {
				sp--
				if stack[sp].IsZero() {
					break
				}
			}
			if !an.validJump(dest) {
				return nil, ErrInvalidJump
			}
			pc, segEnd = dest.Uint64(), 0
			continue
		case PC:
			stack[sp].SetUint64(pc)
			sp++
		case JUMPDEST:
		case PUSH0:
			stack[sp].Clear()
			sp++
		default:
			switch {
			case op >= PUSH1 && op <= PUSH32:
				if an.slot[pc]&constJumpSlot != 0 && pc < segEnd {
					// PUSHn dest; JUMP or JUMPI, checked with their segment
					// and resolved by the analysis.
					if OpCode(code[segEnd-1]) == JUMPI {
						sp--
						if stack[sp].IsZero() {
							pc = segEnd
							continue
						}
					}
					pc, segEnd = an.pushes[push][0], 0
					continue
				}
				stack[sp] = an.pushes[push]
				sp++
				push++
				pc += uint64(op - PUSH1 + 1)
			case op >= DUP1 && op <= DUP16:
				stack[sp] = stack[sp-1-int(op-DUP1)]
				sp++
			case op >= SWAP1 && op <= SWAP16:
				top, other := &stack[sp-1], &stack[sp-2-int(op-SWAP1)]
				x, y := *top, *other // through values: pointer to pointer compiles to memmove calls
				*top, *other = y, x
			default:
				oper := &jumpTable[op]
				st.n = sp
				if err := oper.execute(e, f); err != nil {
					return f.ret, err
				}
				if oper.halts {
					return f.ret, nil
				}
				sp = st.n
			}
		}
		pc++
	}
}
