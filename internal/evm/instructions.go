package evm

import (
	"errors"

	"blockpilot/internal/crypto"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// getData returns size bytes of data starting at off, zero-padded past the
// end (EVM calldata/code read semantics).
func getData(data []byte, off, size uint64) []byte {
	length := uint64(len(data))
	if off > length {
		off = length
	}
	end := off + size
	if end > length {
		end = length
	}
	out := make([]byte, size)
	copy(out, data[off:end])
	return out
}

// boolWord sets z to 1 or 0.
func boolWord(z *uint256.Int, b bool) {
	if b {
		z.SetUint64(1)
	} else {
		z.Clear()
	}
}

// --- keccak ---

func opSha3(e *EVM, f *frame) error {
	off := f.stack.pop()
	size := f.stack.peek()
	var h [32]byte
	crypto.Keccak256Into(&h, f.mem.view(off.Uint64(), size.Uint64()))
	size.SetBytes(h[:])
	return nil
}

// --- environment ---

func opAddress(e *EVM, f *frame) error {
	w := f.address.Word()
	f.stack.push(&w)
	return nil
}

func opBalance(e *EVM, f *frame) error {
	slot := f.stack.peek()
	addr := types.BytesToAddress(types.WordToHash(slot).Bytes())
	*slot = e.State.GetBalance(addr)
	return nil
}

func opOrigin(e *EVM, f *frame) error {
	w := e.Tx.Origin.Word()
	f.stack.push(&w)
	return nil
}

func opCaller(e *EVM, f *frame) error {
	w := f.caller.Word()
	f.stack.push(&w)
	return nil
}

func opCallValue(e *EVM, f *frame) error {
	f.stack.push(&f.value)
	return nil
}

func opCallDataLoad(e *EVM, f *frame) error {
	off := f.stack.peek()
	var word [32]byte // zero-padded past the end of the calldata
	if off.IsUint64() && off.Uint64() < uint64(len(f.input)) {
		copy(word[:], f.input[off.Uint64():])
	}
	off.SetBytes(word[:])
	return nil
}

func opCallDataSize(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(uint64(len(f.input))))
	return nil
}

func opCallDataCopy(e *EVM, f *frame) error {
	memOff := f.stack.pop()
	dataOff := f.stack.pop()
	size := f.stack.pop()
	if size.IsZero() {
		return nil
	}
	var src uint64
	if dataOff.IsUint64() {
		src = dataOff.Uint64()
	} else {
		src = uint64(len(f.input)) // fully out of range → zeros
	}
	f.mem.set(memOff.Uint64(), getData(f.input, src, size.Uint64()))
	return nil
}

func opCodeSize(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(uint64(len(f.code))))
	return nil
}

func opCodeCopy(e *EVM, f *frame) error {
	memOff := f.stack.pop()
	codeOff := f.stack.pop()
	size := f.stack.pop()
	if size.IsZero() {
		return nil
	}
	var src uint64
	if codeOff.IsUint64() {
		src = codeOff.Uint64()
	} else {
		src = uint64(len(f.code))
	}
	f.mem.set(memOff.Uint64(), getData(f.code, src, size.Uint64()))
	return nil
}

func opGasPrice(e *EVM, f *frame) error {
	f.stack.push(&e.Tx.GasPrice)
	return nil
}

func opExtCodeSize(e *EVM, f *frame) error {
	slot := f.stack.peek()
	addr := types.BytesToAddress(types.WordToHash(slot).Bytes())
	slot.SetUint64(uint64(e.State.GetCodeSize(addr)))
	return nil
}

func opReturnDataSize(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(uint64(len(f.retData))))
	return nil
}

func opReturnDataCopy(e *EVM, f *frame) error {
	memOff := f.stack.pop()
	dataOff := f.stack.pop()
	size := f.stack.pop()
	if !dataOff.IsUint64() || !size.IsUint64() {
		return ErrReturnDataOOB
	}
	end := dataOff.Uint64() + size.Uint64()
	if end < dataOff.Uint64() || end > uint64(len(f.retData)) {
		return ErrReturnDataOOB
	}
	if size.IsZero() {
		return nil
	}
	f.mem.set(memOff.Uint64(), f.retData[dataOff.Uint64():end])
	return nil
}

// --- block context ---

func opBlockhash(e *EVM, f *frame) error {
	// Historical block hashes are not tracked; return zero like far-past
	// queries do on mainnet.
	f.stack.peek().Clear()
	return nil
}

func opCoinbase(e *EVM, f *frame) error {
	e.ReadCoinbase = true
	w := e.Block.Coinbase.Word()
	f.stack.push(&w)
	return nil
}

func opTimestamp(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(e.Block.Time))
	return nil
}

func opNumber(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(e.Block.Number))
	return nil
}

func opGasLimit(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(e.Block.GasLimit))
	return nil
}

func opChainID(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(e.Block.ChainID))
	return nil
}

func opSelfBalance(e *EVM, f *frame) error {
	bal := e.State.GetBalance(f.address)
	f.stack.push(&bal)
	return nil
}

// --- memory, storage ---

func opMload(e *EVM, f *frame) error {
	off := f.stack.peek()
	off.SetBytes(f.mem.view(off.Uint64(), 32))
	return nil
}

func opMstore(e *EVM, f *frame) error {
	off := f.stack.pop()
	val := f.stack.pop()
	f.mem.set32(off.Uint64(), &val)
	return nil
}

func opMstore8(e *EVM, f *frame) error {
	off := f.stack.pop()
	val := f.stack.pop()
	f.mem.setByte(off.Uint64(), byte(val.Uint64()))
	return nil
}

func opSload(e *EVM, f *frame) error {
	slot := f.stack.peek()
	key := types.WordToHash(slot)
	*slot = e.State.GetState(f.address, key)
	return nil
}

func opSstore(e *EVM, f *frame) error {
	if f.readOnly {
		return ErrWriteProtection
	}
	slot := f.stack.pop()
	val := f.stack.pop()
	e.State.SetState(f.address, types.WordToHash(&slot), val)
	return nil
}

func opMsize(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(f.mem.len()))
	return nil
}

func opGas(e *EVM, f *frame) error {
	f.stack.push(uint256.NewInt(f.gas))
	return nil
}

func makeLog(topics int) executionFunc {
	return func(e *EVM, f *frame) error {
		if f.readOnly {
			return ErrWriteProtection
		}
		off := f.stack.pop()
		size := f.stack.pop()
		log := &types.Log{Address: f.address}
		for i := 0; i < topics; i++ {
			t := f.stack.pop()
			log.Topics = append(log.Topics, types.WordToHash(&t))
		}
		log.Data = f.mem.get(off.Uint64(), size.Uint64())
		e.State.AddLog(log)
		return nil
	}
}

// --- calls & halting ---

func opCall(e *EVM, f *frame) error {
	gasReq := f.stack.pop()
	toWord := f.stack.pop()
	value := f.stack.pop()
	inOff := f.stack.pop()
	inSize := f.stack.pop()
	outOff := f.stack.pop()
	outSize := f.stack.pop()

	to := types.BytesToAddress(types.WordToHash(&toWord).Bytes())

	// Value-transfer surcharges (the 700 base was charged as constant gas;
	// memory expansion was charged via dynamicGas).
	var extra uint64
	transfersValue := !value.IsZero()
	if transfersValue && f.readOnly {
		return ErrWriteProtection
	}
	if transfersValue {
		extra += GasCallValue
		if !e.State.Exists(to) {
			extra += GasCallNewAccount
		}
	}
	if !f.useGas(extra) {
		return ErrOutOfGas
	}

	requested := uint64(1<<63 - 1)
	if gasReq.IsUint64() {
		requested = gasReq.Uint64()
	}
	forwarded := callGas(f.gas, requested)
	if !f.useGas(forwarded) {
		return ErrOutOfGas
	}
	if transfersValue {
		forwarded += GasCallStipend
	}

	input := f.mem.get(inOff.Uint64(), inSize.Uint64())
	ret, leftover, err := e.call(f.address, to, input, forwarded, &value, f.readOnly)
	f.gas += leftover
	f.retData = ret

	var success uint256.Int
	if err == nil {
		success.SetUint64(1)
	}
	f.stack.push(&success)
	writeCallOutput(f, ret, &outOff, &outSize)
	return nil
}

// writeCallOutput copies a call's return data into the caller's designated
// output window (truncating to the smaller of the two).
func writeCallOutput(f *frame, ret []byte, outOff, outSize *uint256.Int) {
	if len(ret) == 0 || outSize.IsZero() {
		return
	}
	n := outSize.Uint64()
	if uint64(len(ret)) < n {
		n = uint64(len(ret))
	}
	f.mem.set(outOff.Uint64(), ret[:n])
}

// opDelegateCall runs callee code in the caller's storage/value context.
func opDelegateCall(e *EVM, f *frame) error {
	gasReq := f.stack.pop()
	toWord := f.stack.pop()
	inOff := f.stack.pop()
	inSize := f.stack.pop()
	outOff := f.stack.pop()
	outSize := f.stack.pop()

	to := types.BytesToAddress(types.WordToHash(&toWord).Bytes())
	requested := uint64(1<<63 - 1)
	if gasReq.IsUint64() {
		requested = gasReq.Uint64()
	}
	forwarded := callGas(f.gas, requested)
	if !f.useGas(forwarded) {
		return ErrOutOfGas
	}
	input := f.mem.get(inOff.Uint64(), inSize.Uint64())
	ret, leftover, err := e.delegateCall(f, to, input, forwarded)
	f.gas += leftover
	f.retData = ret

	var success uint256.Int
	if err == nil {
		success.SetUint64(1)
	}
	f.stack.push(&success)
	writeCallOutput(f, ret, &outOff, &outSize)
	return nil
}

// opStaticCall runs callee code with state mutation forbidden.
func opStaticCall(e *EVM, f *frame) error {
	gasReq := f.stack.pop()
	toWord := f.stack.pop()
	inOff := f.stack.pop()
	inSize := f.stack.pop()
	outOff := f.stack.pop()
	outSize := f.stack.pop()

	to := types.BytesToAddress(types.WordToHash(&toWord).Bytes())
	requested := uint64(1<<63 - 1)
	if gasReq.IsUint64() {
		requested = gasReq.Uint64()
	}
	forwarded := callGas(f.gas, requested)
	if !f.useGas(forwarded) {
		return ErrOutOfGas
	}
	input := f.mem.get(inOff.Uint64(), inSize.Uint64())
	ret, leftover, err := e.StaticCall(f.address, to, input, forwarded)
	f.gas += leftover
	f.retData = ret

	var success uint256.Int
	if err == nil {
		success.SetUint64(1)
	}
	f.stack.push(&success)
	writeCallOutput(f, ret, &outOff, &outSize)
	return nil
}

// opCreate deploys a contract from in-memory init code.
func opCreate(e *EVM, f *frame) error {
	if f.readOnly {
		return ErrWriteProtection
	}
	value := f.stack.pop()
	off := f.stack.pop()
	size := f.stack.pop()
	initCode := f.mem.get(off.Uint64(), size.Uint64())

	// EIP-150: forward all but 1/64 of the remaining gas.
	forwarded := f.gas - f.gas/64
	f.gas -= forwarded

	ret, addr, leftover, err := e.Create(f.address, initCode, forwarded, &value)
	f.gas += leftover
	var out uint256.Int
	if err == nil {
		out = addr.Word()
	}
	if errors.Is(err, ErrRevert) {
		f.retData = ret
	} else {
		f.retData = nil
	}
	f.stack.push(&out)
	return nil
}

// opCreate2 deploys a contract at a salt-determined address.
func opCreate2(e *EVM, f *frame) error {
	if f.readOnly {
		return ErrWriteProtection
	}
	value := f.stack.pop()
	off := f.stack.pop()
	size := f.stack.pop()
	saltWord := f.stack.pop()
	initCode := f.mem.get(off.Uint64(), size.Uint64())

	forwarded := f.gas - f.gas/64
	f.gas -= forwarded

	ret, addr, leftover, err := e.Create2(f.address, initCode, types.WordToHash(&saltWord), forwarded, &value)
	f.gas += leftover
	var out uint256.Int
	if err == nil {
		out = addr.Word()
	}
	if errors.Is(err, ErrRevert) {
		f.retData = ret
	} else {
		f.retData = nil
	}
	f.stack.push(&out)
	return nil
}

// opExtCodeCopy copies another account's code into memory.
func opExtCodeCopy(e *EVM, f *frame) error {
	addrWord := f.stack.pop()
	memOff := f.stack.pop()
	codeOff := f.stack.pop()
	size := f.stack.pop()
	if size.IsZero() {
		return nil
	}
	code := e.State.GetCode(types.BytesToAddress(types.WordToHash(&addrWord).Bytes()))
	var src uint64
	if codeOff.IsUint64() {
		src = codeOff.Uint64()
	} else {
		src = uint64(len(code))
	}
	f.mem.set(memOff.Uint64(), getData(code, src, size.Uint64()))
	return nil
}

// opExtCodeHash pushes the code hash of an account (zero for absents).
func opExtCodeHash(e *EVM, f *frame) error {
	slot := f.stack.peek()
	addr := types.BytesToAddress(types.WordToHash(slot).Bytes())
	h := e.State.GetCodeHash(addr)
	slot.SetBytes(h.Bytes())
	return nil
}

func opReturn(e *EVM, f *frame) error {
	off := f.stack.pop()
	size := f.stack.pop()
	f.ret = f.mem.get(off.Uint64(), size.Uint64())
	return nil
}

func opRevert(e *EVM, f *frame) error {
	off := f.stack.pop()
	size := f.stack.pop()
	f.ret = f.mem.get(off.Uint64(), size.Uint64())
	return ErrRevert
}

func opInvalid(e *EVM, f *frame) error {
	return ErrInvalidOpcode
}
