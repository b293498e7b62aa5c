// Package chain implements the blockchain substrate: canonical transaction
// application semantics (shared verbatim by the serial baseline, the
// OCC-WSI proposer workers and the validator workers — that is what makes
// parallel replay byte-identical to serial execution), block sealing, the
// serial block processor, and the chain/fork container.
package chain

import (
	"errors"
	"fmt"
	"runtime"

	"blockpilot/internal/evm"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Transaction validity errors (the transaction cannot be included at all —
// distinct from an included transaction whose EVM execution failed), and a
// block whose body its header does not commit to (CheckBody).
var (
	ErrNonceTooLow       = errors.New("chain: nonce too low")
	ErrNonceTooHigh      = errors.New("chain: nonce too high")
	ErrInsufficientFunds = errors.New("chain: insufficient funds for gas * price + value")
	ErrIntrinsicGas      = errors.New("chain: intrinsic gas exceeds gas limit")
	ErrGasLimitReached   = errors.New("chain: block gas limit reached")
	ErrBodyMismatch      = errors.New("chain: body does not match its header")
)

// Params are chain-wide constants plus node-local execution knobs that every
// seal/verify call site shares.
type Params struct {
	ChainID     uint64
	GasLimit    uint64 // block gas limit
	BlockReward uint64 // credited to the coinbase at block finalization
}

// MaxCommitWorkers caps commit parallelism: beyond ~8 workers the
// accounts-trie batch insert (the serial tail of the tail) dominates and
// extra goroutines only add scheduling noise.
const MaxCommitWorkers = 8

// ResolveCommitWorkers is the parallelism of the state commit & Merkle root
// hashing tail at every seal/verify site (proposer, validator, serial
// processor): min(GOMAXPROCS, MaxCommitWorkers). Every worker count
// produces bit-identical roots (internal/state's commit parity suite).
func (Params) ResolveCommitWorkers() int {
	return min(runtime.GOMAXPROCS(0), MaxCommitWorkers)
}

// DefaultParams mirrors a mainnet-ish configuration.
func DefaultParams() Params {
	return Params{ChainID: 1, GasLimit: 30_000_000, BlockReward: 2_000_000_000}
}

// BlockContextFor builds the EVM block context for a header.
func BlockContextFor(h *types.Header, chainID uint64) evm.BlockContext {
	return evm.BlockContext{
		Coinbase: h.Coinbase,
		Number:   h.Number,
		Time:     h.Time,
		GasLimit: h.GasLimit,
		ChainID:  chainID,
	}
}

// ApplyTransaction executes one transaction on the overlay under the given
// block context. On success it returns the receipt and the fee
// (gasUsed × gasPrice) owed to the coinbase.
//
// The coinbase is deliberately NOT credited here: BlockPilot aggregates fees
// outside conflict detection (a commutative per-block delta), otherwise
// every transaction would conflict on the coinbase account and no block
// could ever be parallelized (see DESIGN.md §4).
//
// An error return means the transaction is invalid in this state and must
// not be included (or, for the validator, that the block is invalid). EVM
// execution failures (revert, out of gas) do NOT return an error: the
// transaction is included with Status == 0 and its gas is consumed.
func ApplyTransaction(o *state.Overlay, tx *types.Transaction, bc evm.BlockContext) (*types.Receipt, *uint256.Int, error) {
	receipt, fee, _, err := ApplyTransactionCoinbase(o, tx, bc)
	return receipt, fee, err
}

// ApplyTransactionCoinbase is ApplyTransaction that also reports whether the
// execution read bc.Coinbase (evm.EVM.ReadCoinbase). Apart from the coinbase,
// the result is a function of the state the overlay read and of bc's Number,
// Time, GasLimit and ChainID — what lets a validator take a sibling block's
// result for the same transaction (internal/validator, Siblings).
func ApplyTransactionCoinbase(o *state.Overlay, tx *types.Transaction, bc evm.BlockContext) (*types.Receipt, *uint256.Int, bool, error) {
	nonce := o.GetNonce(tx.From)
	switch {
	case tx.Nonce < nonce:
		return nil, nil, false, fmt.Errorf("%w: have %d, tx %d", ErrNonceTooLow, nonce, tx.Nonce)
	case tx.Nonce > nonce:
		return nil, nil, false, fmt.Errorf("%w: have %d, tx %d", ErrNonceTooHigh, nonce, tx.Nonce)
	}
	intrinsic := evm.IntrinsicGas(tx.Data)
	if tx.CreateContract {
		intrinsic += evm.GasCreate
	}
	if tx.Gas < intrinsic {
		return nil, nil, false, fmt.Errorf("%w: limit %d, need %d", ErrIntrinsicGas, tx.Gas, intrinsic)
	}
	balance := o.GetBalance(tx.From)
	cost := tx.Cost()
	if balance.Lt(&cost) {
		return nil, nil, false, fmt.Errorf("%w: balance %s, cost %s", ErrInsufficientFunds, balance.String(), cost.String())
	}

	// Buy gas and bump the nonce.
	var gasVal, prepaid uint256.Int
	gasVal.SetUint64(tx.Gas)
	prepaid.Mul(&tx.GasPrice, &gasVal)
	o.SubBalance(tx.From, &prepaid)
	o.SetNonce(tx.From, nonce+1)
	o.ResetRefund()

	logStart := len(o.Logs())
	e := evm.New(o, bc, evm.TxContext{Origin: tx.From, GasPrice: tx.GasPrice})
	var (
		ret          []byte
		gasLeft      uint64
		vmErr        error
		contractAddr types.Address
	)
	if tx.CreateContract {
		// Deployment: the nonce consumed above also determines the address.
		contractAddr = types.CreateAddress(tx.From, nonce)
		ret, _, gasLeft, vmErr = e.CreateAt(tx.From, tx.Data, tx.Gas-intrinsic, &tx.Value, contractAddr)
	} else {
		ret, gasLeft, vmErr = e.Call(tx.From, tx.To, tx.Data, tx.Gas-intrinsic, &tx.Value)
	}

	gasUsed := tx.Gas - gasLeft
	// EIP-3529-style cap: refunds repay at most half the gas used.
	refund := o.GetRefund()
	if refund > gasUsed/2 {
		refund = gasUsed / 2
	}
	gasUsed -= refund

	// Return unused gas (including the refund) to the sender.
	var back, backVal uint256.Int
	backVal.SetUint64(tx.Gas - gasUsed)
	back.Mul(&tx.GasPrice, &backVal)
	o.AddBalance(tx.From, &back)

	var fee, feeVal uint256.Int
	feeVal.SetUint64(gasUsed)
	fee.Mul(&tx.GasPrice, &feeVal)

	receipt := &types.Receipt{
		TxHash:     tx.Hash(),
		Status:     1,
		GasUsed:    gasUsed,
		ReturnData: ret,
		Logs:       append([]*types.Log(nil), o.TakeLogs(logStart)...),
	}
	if vmErr != nil {
		receipt.Status = 0
		receipt.Logs = nil
	} else if tx.CreateContract {
		receipt.ContractAddress = contractAddr
	}
	return receipt, &fee, e.ReadCoinbase, nil
}
