package chain

import (
	"fmt"

	"blockpilot/internal/state"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// ProcessResult is the outcome of executing a block's transactions.
type ProcessResult struct {
	State    *state.Snapshot // committed post-state
	Receipts []*types.Receipt
	GasUsed  uint64
	Fees     uint256.Int // total fees credited to the coinbase
	Profile  *types.BlockProfile
	Changes  *state.ChangeSet // everything applied, including finalization
}

// ExecuteSerial executes transactions in order against parent — one overlay,
// re-armed for each transaction, over an accumulating in-memory state. This is
// the Geth baseline executor and the reference semantics every parallel
// executor in BlockPilot must reproduce bit-for-bit (same post-state root).
func ExecuteSerial(parent *state.Snapshot, header *types.Header, txs []*types.Transaction, params Params) (*ProcessResult, error) {
	bc := BlockContextFor(header, params.ChainID)
	accum := state.NewMemory(parent)
	parts := make([]*state.ChangeSet, len(txs))
	res := &ProcessResult{Profile: &types.BlockProfile{}}

	o := state.NewOverlay(accum, 0)
	for i, tx := range txs {
		o.Reset(accum, types.Version(i))
		receipt, fee, err := ApplyTransaction(o, tx, bc)
		if err != nil {
			return nil, fmt.Errorf("tx %d (%s): %w", i, tx.Hash(), err)
		}
		res.GasUsed += receipt.GasUsed
		if res.GasUsed > header.GasLimit {
			return nil, fmt.Errorf("tx %d: %w", i, ErrGasLimitReached)
		}
		receipt.CumulativeGasUsed = res.GasUsed
		res.Receipts = append(res.Receipts, receipt)
		res.Fees.Add(&res.Fees, fee)
		res.Profile.Txs = append(res.Profile.Txs, types.ProfileFromAccessSet(o.Access(), receipt.GasUsed))

		parts[i] = o.ChangeSet()
		accum.ApplyChangeSet(parts[i])
	}

	// Finalization: credit aggregated fees plus the block reward to the
	// coinbase as a single commutative delta (outside conflict detection).
	total := state.Fold(parts...)
	Finalize(parent, total, header.Coinbase, &res.Fees, params)

	res.State, _ = CommitAndRoot(parent, total, params, header.Number)
	res.Changes = total
	return res, nil
}

// CommitAndRoot commits total onto parent and computes the post-state root,
// parallelized over Params.ResolveCommitWorkers workers. This is the single
// seal/verify commit tail shared by the serial processor, the OCC-WSI
// proposer and the parallel validator — every worker count produces
// bit-identical snapshots and roots. Both phases are recorded
// in telemetry (state commit duration, root hash duration, account /
// storage-trie fanout). On the disk backend the commit hashes the accounts
// trie itself and returns at its root, so the commit span times resolve,
// insert and hash, and the root-hash span reads the recorded root in O(1);
// the persist walk and the barrier run behind it, and the store's lock
// orders every later store call after them (state.Snapshot.CommitParallel).
// The trailing block height is unused: the parameter stays because
// benchmark/ calls with it.
func CommitAndRoot(parent *state.Snapshot, total *state.ChangeSet, params Params, _ uint64) (*state.Snapshot, types.Hash) {
	w := params.ResolveCommitWorkers()

	span := telemetry.StartSpan(telemetry.StateCommitSeconds)
	post := parent.CommitParallel(total, w)
	span.End()

	rspan := telemetry.StartSpan(telemetry.StateRootHashSeconds)
	root := post.RootParallel(w)
	rspan.End()

	storageTries := 0
	for i := range total.Accounts {
		if len(total.Accounts[i].Slots) > 0 {
			storageTries++
		}
	}
	telemetry.StateCommitAccounts.Observe(uint64(len(total.Accounts)))
	telemetry.StateCommitStorageTries.Observe(uint64(storageTries))
	return post, root
}

// Finalize adds the coinbase credit (fees + block reward) to total, the
// block's folded change set on top of parent, by a sorted insert or replace:
// the coinbase's current nonce and balance come from total when the block
// touched the account, else from parent — one lookup, no block-sized
// accumulation state.
func Finalize(parent state.Reader, total *state.ChangeSet, coinbase types.Address, fees *uint256.Int, params Params) {
	var acct state.Account
	if ch := total.Account(coinbase); ch != nil {
		acct.Nonce, acct.Balance = ch.Nonce, ch.Balance
	} else {
		acct, _ = parent.Account(coinbase)
	}
	var reward uint256.Int
	reward.SetUint64(params.BlockReward)
	acct.Balance.Add(&acct.Balance, reward.Add(&reward, fees))
	total.SetAccount(coinbase, acct.Nonce, acct.Balance)
}

// SealBlock assembles a block from execution results.
func SealBlock(parent *types.Header, coinbase types.Address, time uint64,
	txs []*types.Transaction, res *ProcessResult, params Params) *types.Block {
	blk := &types.Block{Header: types.Header{
		ParentHash: parent.Hash(),
		Number:     parent.Number + 1,
		Coinbase:   coinbase,
		StateRoot:  res.State.Root(),
		GasLimit:   params.GasLimit,
		Time:       time,
	}, Txs: txs, Profile: res.Profile}
	SealBody(&blk.Header, txs, res.Profile, res.Receipts, res.GasUsed)
	return blk
}

// SealBody fills every header field CheckBody and CheckExecution hold a
// block to. The state root is the caller's, set once the post-state is
// committed.
func SealBody(h *types.Header, txs []*types.Transaction, profile *types.BlockProfile, receipts []*types.Receipt, gasUsed uint64) {
	h.GasUsed = gasUsed
	h.TxRoot = types.ComputeTxRoot(txs)
	h.ProfileRoot = types.ComputeProfileRoot(profile)
	h.ReceiptRoot = types.ComputeReceiptRoot(receipts)
	h.LogsBloom = types.CreateBloom(receipts)
}

// VerifyBlockSerial is the baseline validator: it re-executes the block
// serially and checks every header commitment. It returns the process
// result so the caller can commit the verified state.
func VerifyBlockSerial(parent *state.Snapshot, parentHeader *types.Header, block *types.Block, params Params) (*ProcessResult, error) {
	if err := CheckBody(block); err != nil {
		return nil, err
	}
	if err := CheckLink(parentHeader, block, params); err != nil {
		return nil, err
	}
	res, err := ExecuteSerial(parent, &block.Header, block.Txs, params)
	if err != nil {
		return nil, err
	}
	if err := CheckExecution(&block.Header, res.GasUsed, res.Receipts); err != nil {
		return nil, err
	}
	if err := CheckStateRoot(&block.Header, res.State.Root()); err != nil {
		return nil, err
	}
	return res, nil
}

// CheckBody checks that block carries the body its header commits to, the
// transactions (TxRoot) and the profile (ProfileRoot), else ErrBodyMismatch.
// The pipeline runs it in Submit; ValidateParallel and VerifyBlockSerial run
// it for their direct callers.
func CheckBody(block *types.Block) error {
	h := &block.Header
	if txs, prof := types.ComputeTxRoot(block.Txs), types.ComputeProfileRoot(block.Profile); txs != h.TxRoot || prof != h.ProfileRoot {
		return fmt.Errorf("%w: tx root %s, profile root %s; the header's are %s, %s", ErrBodyMismatch, txs, prof, h.TxRoot, h.ProfileRoot)
	}
	return nil
}

// CheckLink checks the header commitments a block can be held to before it
// executes: it extends parent by one height, under the chain's gas limit.
func CheckLink(parent *types.Header, block *types.Block, params Params) error {
	h := &block.Header
	switch {
	case h.ParentHash != parent.Hash():
		return fmt.Errorf("chain: parent hash mismatch")
	case h.Number != parent.Number+1:
		return fmt.Errorf("chain: height %d does not follow %d", h.Number, parent.Number)
	}
	return CheckGasLimit(h, params)
}

// CheckGasLimit checks the one link commitment that needs no parent: the
// chain's gas limit. The pipeline runs it before a block can park.
func CheckGasLimit(h *types.Header, params Params) error {
	if h.GasLimit != params.GasLimit {
		return fmt.Errorf("chain: gas limit %d, the chain's is %d", h.GasLimit, params.GasLimit)
	}
	return nil
}

// CheckExecution checks the header commitments to what the block's
// transactions produced, gasUsed in total and receipts in block order: the
// gas used, within the gas limit, the receipt root and the logs bloom.
func CheckExecution(h *types.Header, gasUsed uint64, receipts []*types.Receipt) error {
	switch {
	case gasUsed != h.GasUsed:
		return fmt.Errorf("chain: gas used %d != header %d", gasUsed, h.GasUsed)
	case gasUsed > h.GasLimit:
		return fmt.Errorf("%w: gas used %d > limit %d", ErrGasLimitReached, gasUsed, h.GasLimit)
	case types.ComputeReceiptRoot(receipts) != h.ReceiptRoot:
		return fmt.Errorf("chain: receipt root mismatch")
	case types.CreateBloom(receipts) != h.LogsBloom:
		return fmt.Errorf("chain: logs bloom mismatch")
	}
	return nil
}

// CheckStateRoot checks the header's commitment to the committed post-state.
func CheckStateRoot(h *types.Header, root types.Hash) error {
	if root != h.StateRoot {
		return fmt.Errorf("chain: state root mismatch: %s != %s", root, h.StateRoot)
	}
	return nil
}
