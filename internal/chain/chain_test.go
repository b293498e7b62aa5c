package chain

import (
	"errors"
	"strings"
	"testing"

	"blockpilot/internal/evm"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

var (
	alice = types.HexToAddress("0xa11ce")
	bob   = types.HexToAddress("0xb0b")
	miner = types.HexToAddress("0x314e5")
)

func u(v uint64) *uint256.Int { return uint256.NewInt(v) }

func testGenesis() *state.Snapshot {
	return state.NewGenesisBuilder().
		AddAccount(alice, u(10_000_000)).
		AddAccount(bob, u(1_000_000)).
		Build()
}

func transferTx(nonce uint64, from, to types.Address, value, gasPrice uint64) *types.Transaction {
	tx := &types.Transaction{Nonce: nonce, Gas: 21000, To: to, From: from}
	tx.GasPrice.SetUint64(gasPrice)
	tx.Value.SetUint64(value)
	return tx
}

func TestApplyTransactionTransfer(t *testing.T) {
	gen := testGenesis()
	o := state.NewOverlay(gen, 0)
	tx := transferTx(0, alice, bob, 1000, 2)
	receipt, fee, err := ApplyTransaction(o, tx, evm.BlockContext{GasLimit: 1e7})
	if err != nil {
		t.Fatal(err)
	}
	if receipt.Status != 1 || receipt.GasUsed != evm.TxGas {
		t.Fatalf("receipt = %+v", receipt)
	}
	if !fee.Eq(u(21000 * 2)) {
		t.Fatalf("fee = %s", fee.String())
	}
	if b := o.GetBalance(bob); !b.Eq(u(1_001_000)) {
		t.Fatalf("bob = %s", b.String())
	}
	// alice: -value -fee
	if b := o.GetBalance(alice); !b.Eq(u(10_000_000 - 1000 - 42000)) {
		t.Fatalf("alice = %s", b.String())
	}
	if o.GetNonce(alice) != 1 {
		t.Fatal("nonce not bumped")
	}
}

func TestApplyTransactionValidityErrors(t *testing.T) {
	gen := testGenesis()
	bc := evm.BlockContext{GasLimit: 1e7}

	o := state.NewOverlay(gen, 0)
	if _, _, err := ApplyTransaction(o, transferTx(5, alice, bob, 1, 1), bc); !errors.Is(err, ErrNonceTooHigh) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := ApplyTransaction(o, transferTx(0, bob, alice, 5_000_000, 1), bc); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("err = %v", err)
	}
	low := transferTx(0, alice, bob, 1, 1)
	if _, _, err := ApplyTransaction(o, low, bc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ApplyTransaction(o, low, bc); !errors.Is(err, ErrNonceTooLow) {
		t.Fatalf("err = %v", err)
	}
	short := transferTx(1, alice, bob, 1, 1)
	short.Gas = 100
	if _, _, err := ApplyTransaction(o, short, bc); !errors.Is(err, ErrIntrinsicGas) {
		t.Fatalf("err = %v", err)
	}
}

func TestRevertedTxIncludedWithStatusZero(t *testing.T) {
	reverter := types.HexToAddress("0xdead")
	gen := state.NewGenesisBuilder().
		AddAccount(alice, u(10_000_000)).
		AddContract(reverter, u(0), asm.MustAssemble("PUSH1 0\nPUSH1 0\nREVERT"), nil).
		Build()
	o := state.NewOverlay(gen, 0)
	tx := &types.Transaction{Nonce: 0, Gas: 100_000, To: reverter, From: alice}
	tx.GasPrice.SetUint64(1)
	receipt, fee, err := ApplyTransaction(o, tx, evm.BlockContext{GasLimit: 1e7})
	if err != nil {
		t.Fatalf("reverted tx must still be includable: %v", err)
	}
	if receipt.Status != 0 {
		t.Fatal("status should be 0")
	}
	if fee.IsZero() {
		t.Fatal("reverted tx still pays for gas used")
	}
	if o.GetNonce(alice) != 1 {
		t.Fatal("nonce must advance for reverted tx")
	}
}

func TestExecuteSerialAndVerify(t *testing.T) {
	gen := testGenesis()
	params := DefaultParams()
	c := NewChain(gen, params)

	txs := []*types.Transaction{
		transferTx(0, alice, bob, 500, 3),
		transferTx(1, alice, bob, 700, 2),
		transferTx(0, bob, alice, 100, 5),
	}
	parentH := &c.Genesis().Header
	header := &types.Header{
		ParentHash: parentH.Hash(), Number: 1, Coinbase: miner,
		GasLimit: params.GasLimit, Time: 1000,
	}
	res, err := ExecuteSerial(gen, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.GasUsed != 3*21000 {
		t.Fatalf("gas used = %d", res.GasUsed)
	}
	// Coinbase got fees + reward.
	wantFees := uint64(21000*3 + 21000*2 + 21000*5)
	if !res.Fees.Eq(u(wantFees)) {
		t.Fatalf("fees = %s, want %d", res.Fees.String(), wantFees)
	}
	if b := res.State.Balance(miner); !b.Eq(u(wantFees + params.BlockReward)) {
		t.Fatalf("miner balance = %s", b.String())
	}

	block := SealBlock(parentH, miner, 1000, txs, res, params)
	vres, err := VerifyBlockSerial(gen, parentH, block, params)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if vres.State.Root() != block.Header.StateRoot {
		t.Fatal("verify state root mismatch")
	}

	// Tampering must be caught.
	bad := *block
	bad.Header.StateRoot[0] ^= 1
	if _, err := VerifyBlockSerial(gen, parentH, &bad, params); err == nil || !strings.Contains(err.Error(), "state root") {
		t.Fatalf("tampered state root accepted: %v", err)
	}
	bad2 := *block
	bad2.Txs = bad2.Txs[:2]
	if _, err := VerifyBlockSerial(gen, parentH, &bad2, params); err == nil {
		t.Fatal("tampered tx list accepted")
	}
}

// TestCheckBody: a block passes CheckBody only with the transactions and the
// profile its header commits to. Each relay edit below keeps the block's
// hash and fails with ErrBodyMismatch; a nil and an empty profile are one
// body.
func TestCheckBody(t *testing.T) {
	gen := testGenesis()
	params := DefaultParams()
	parentH := &NewChain(gen, params).Genesis().Header
	seal := func(txs []*types.Transaction) *types.Block {
		header := &types.Header{ParentHash: parentH.Hash(), Number: 1, Coinbase: miner, GasLimit: params.GasLimit, Time: 1}
		res, err := ExecuteSerial(gen, header, txs, params)
		if err != nil {
			t.Fatal(err)
		}
		return SealBlock(parentH, miner, 1, txs, res, params)
	}
	block := seal([]*types.Transaction{transferTx(0, alice, bob, 500, 3), transferTx(1, alice, bob, 700, 2)})
	if err := CheckBody(block); err != nil {
		t.Fatalf("sealed block: %v", err)
	}

	editedTx := *block
	tx := *block.Txs[1]
	tx.Data = []byte{0xff}
	editedTx.Txs = []*types.Transaction{block.Txs[0], &tx}

	addedKey := *block
	profile, err := types.DecodeBlockProfile(block.Profile.Encode())
	if err != nil {
		t.Fatal(err)
	}
	profile.Txs[0].Writes = append(profile.Txs[0].Writes, types.AccountKey(miner))
	addedKey.Profile = profile

	stripped := *block
	stripped.Profile = nil

	for name, b := range map[string]*types.Block{"edited tx": &editedTx, "added profile key": &addedKey, "stripped profile": &stripped} {
		if b.Hash() != block.Hash() {
			t.Fatalf("%s: the edit changed the block hash", name)
		}
		if err := CheckBody(b); !errors.Is(err, ErrBodyMismatch) {
			t.Fatalf("%s: err = %v, want a body mismatch", name, err)
		}
	}

	empty := seal(nil)
	if empty.Profile == nil || len(empty.Profile.Txs) != 0 {
		t.Fatalf("empty block sealed with profile %v", empty.Profile)
	}
	if types.ComputeProfileRoot(nil) != types.ComputeProfileRoot(&types.BlockProfile{}) {
		t.Fatal("nil and empty profiles hash differently")
	}
	emptyNil := *empty
	emptyNil.Profile = nil
	for _, b := range []*types.Block{empty, &emptyNil} {
		if err := CheckBody(b); err != nil {
			t.Fatalf("empty block, profile %v: %v", b.Profile, err)
		}
	}
}

func TestSerialDeterminism(t *testing.T) {
	gen := testGenesis()
	params := DefaultParams()
	header := &types.Header{Number: 1, Coinbase: miner, GasLimit: params.GasLimit}
	txs := []*types.Transaction{
		transferTx(0, alice, bob, 500, 3),
		transferTx(0, bob, alice, 100, 5),
	}
	r1, err := ExecuteSerial(gen, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExecuteSerial(gen, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	if r1.State.Root() != r2.State.Root() {
		t.Fatal("serial execution not deterministic")
	}
}

func TestGasLimitEnforced(t *testing.T) {
	gen := testGenesis()
	params := DefaultParams()
	params.GasLimit = 30_000 // fits one transfer only
	header := &types.Header{Number: 1, Coinbase: miner, GasLimit: params.GasLimit}
	txs := []*types.Transaction{
		transferTx(0, alice, bob, 1, 1),
		transferTx(1, alice, bob, 1, 1),
	}
	if _, err := ExecuteSerial(gen, header, txs, params); !errors.Is(err, ErrGasLimitReached) {
		t.Fatalf("err = %v", err)
	}
}

func TestChainForksAndHead(t *testing.T) {
	gen := testGenesis()
	params := DefaultParams()
	c := NewChain(gen, params)
	parentH := &c.Genesis().Header

	mk := func(coinbase types.Address, txs []*types.Transaction) (*types.Block, *ProcessResult) {
		header := &types.Header{ParentHash: parentH.Hash(), Number: 1, Coinbase: coinbase,
			GasLimit: params.GasLimit, Time: 5}
		res, err := ExecuteSerial(gen, header, txs, params)
		if err != nil {
			t.Fatal(err)
		}
		return SealBlock(parentH, coinbase, 5, txs, res, params), res
	}

	// Two competing blocks at height 1 (different coinbases → different roots).
	b1, r1 := mk(miner, []*types.Transaction{transferTx(0, alice, bob, 10, 1)})
	b2, r2 := mk(bob, []*types.Transaction{transferTx(0, alice, bob, 10, 1)})
	if b1.Hash() == b2.Hash() {
		t.Fatal("fork blocks identical")
	}
	if err := c.Insert(b1, r1.State); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(b2, r2.State); err != nil {
		t.Fatal(err)
	}
	if got := len(c.BlocksAt(1)); got != 2 {
		t.Fatalf("%d blocks at height 1", got)
	}
	// First inserted block wins the head tie.
	if c.Head().Hash() != b1.Hash() {
		t.Fatal("head is not first-validated block")
	}
	// Unknown parent rejected.
	orphan := *b1
	orphan.Header.ParentHash[0] ^= 1
	if err := c.Insert(&orphan, r1.State); err == nil {
		t.Fatal("orphan accepted")
	}
	// Wrong state rejected (fresh block, not the idempotent-duplicate path).
	b3, _ := mk(alice, []*types.Transaction{transferTx(0, bob, alice, 1, 1)})
	if err := c.Insert(b3, gen); err == nil {
		t.Fatal("mismatched post-state accepted")
	}
}

// finalizationChangeRef is Finalize's credit as it was when seal and commit
// materialised the whole block into a Memory just to read the coinbase.
func finalizationChangeRef(accum *state.Memory, coinbase types.Address, fees *uint256.Int, params Params) *state.ChangeSet {
	var reward uint256.Int
	reward.SetUint64(params.BlockReward)
	reward.Add(&reward, fees)

	acct, _ := accum.Account(coinbase)
	acct.Balance.Add(&acct.Balance, &reward)
	return state.NewChangeSet(state.AccountChange{Addr: coinbase, Nonce: acct.Nonce, Balance: acct.Balance})
}

// TestFinalizationMatchesMemory: reading the coinbase from the block's change
// set, else from the parent, equals reading it from parent + block
// materialised — with the coinbase touched by the block, untouched, and
// absent from the parent.
func TestFinalizationMatchesMemory(t *testing.T) {
	parent := state.NewGenesisBuilder().
		AddAccount(alice, u(10_000_000)).
		AddAccount(miner, u(77)).
		Build()
	params := DefaultParams()
	fees := u(4242)
	block := func(touched ...types.Address) *state.ChangeSet {
		accts := []state.AccountChange{{Addr: alice, Nonce: 1, Balance: *u(9_000_000)}}
		for i, a := range touched {
			accts = append(accts, state.AccountChange{Addr: a, Nonce: uint64(3 + i), Balance: *u(uint64(500 + i))})
		}
		return state.NewChangeSet(accts...)
	}
	for _, tc := range []struct {
		name     string
		coinbase types.Address
		total    *state.ChangeSet
	}{
		{"touched", miner, block(miner)},
		{"untouched", miner, block()},
		{"absent from the parent", bob, block()},
		{"absent from the parent, created by the block", bob, block(bob)},
	} {
		accum := state.NewMemory(parent)
		accum.ApplyChangeSet(tc.total)
		want := finalizationChangeRef(accum, tc.coinbase, fees, params)
		before := len(tc.total.Accounts)
		Finalize(parent, tc.total, tc.coinbase, fees, params)
		if tc.total.Account(tc.coinbase) == nil || tc.total.Account(alice).Nonce != 1 {
			t.Fatalf("%s: change set %+v", tc.name, tc.total.Accounts)
		}
		if added := len(tc.total.Accounts) - before; added > 1 {
			t.Fatalf("%s: Finalize added %d accounts", tc.name, added)
		}
		g, w := tc.total.Account(tc.coinbase), want.Account(tc.coinbase)
		if g.Nonce != w.Nonce || g.Balance != w.Balance || g.CodeSet || len(g.Slots) != 0 {
			t.Fatalf("%s: %+v, reference %+v", tc.name, g, w)
		}
	}
}
