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
	pc       uint64
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

// run executes the frame to completion on a pooled operand stack, which
// goes back to the pool on every exit path.
func (e *EVM) run(f *frame) ([]byte, error) {
	f.stack = newStack()
	defer f.stack.release()
	for {
		if f.pc >= uint64(len(f.code)) {
			return nil, nil // implicit STOP
		}
		op := OpCode(f.code[f.pc])
		oper := &jumpTable[op]
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
			ms, overflow := oper.memorySize(f)
			if overflow {
				return nil, ErrGasUintOverflow
			}
			memSize = ms
		}
		if oper.dynamicGas != nil {
			dg, overflow := oper.dynamicGas(e, f, memSize)
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
