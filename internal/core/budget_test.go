package core

import (
	"path/filepath"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/evm"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/state"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// TestOverlayReadsEachAccountOnce is the lookup budget of internal/state's
// test of the same name, through the proposer's view: an overlay over
// MVState.View costs the parent snapshot one lookup per account touched, one
// more for a callee's code, one per slot — whether the account resolves from
// the parent or from a version this block committed. mvView's base is a
// concrete *state.Snapshot, so the count is the disk backend's own
// logical-read counter (one CountLogicalRead per Account, Code or Storage).
func TestOverlayReadsEachAccountOnce(t *testing.T) {
	db, err := trie.OpenDatabase(filepath.Join(t.TempDir(), "state.db"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	alice, bob, contract := types.HexToAddress("0xa11ce"), types.HexToAddress("0xb0b"), types.HexToAddress("0xc0de")
	counter := asm.MustAssemble("PUSH1 0\nSLOAD\nPUSH1 1\nADD\nPUSH1 0\nSSTORE\nSTOP")
	parent := state.NewGenesisBuilder().
		AddAccount(alice, uint256.NewInt(10_000_000)).
		AddAccount(bob, uint256.NewInt(1_000_000)).
		AddContract(contract, uint256.NewInt(0), counter, nil).
		BuildInto(db, 0)
	mv := NewMVState(parent)

	// run applies one transaction from alice on a fresh overlay over the
	// latest view, commits it, and returns the lookups the parent served.
	nonce := uint64(0)
	run := func(to types.Address, value uint64) uint64 {
		t.Helper()
		tx := &types.Transaction{Nonce: nonce, Gas: 100_000, From: alice, To: to}
		tx.GasPrice.SetUint64(1)
		tx.Value.SetUint64(value)
		nonce++
		before := db.Stats().LogicalReads
		v := mv.Version()
		o := state.NewOverlay(mv.View(v), v)
		if r, _, err := chain.ApplyTransaction(o, tx, evm.BlockContext{GasLimit: 1e7}); err != nil || r.Status != 1 {
			t.Fatalf("apply: %v, receipt %+v", err, r)
		}
		o.GetCodeHash(to) // a second touch of the recipient is free
		reads := db.Stats().LogicalReads - before
		if _, _, ok := mv.TryCommit(o.Access(), o.ChangeSet()); !ok {
			t.Fatal("commit aborted")
		}
		return reads
	}

	if got := run(bob, 1000); got != 2 {
		t.Fatalf("EOA → EOA transfer from the parent: %d lookups, budget 2", got)
	}
	if got := run(bob, 1000); got != 2 {
		t.Fatalf("EOA → EOA transfer between accounts this block wrote: %d lookups, budget 2", got)
	}
	if got := run(contract, 0); got != 4 {
		t.Fatalf("call into a contract: %d lookups, budget 4 (2 accounts + code + slot)", got)
	}
	if got := run(contract, 0); got != 3 {
		t.Fatalf("call into a contract this block wrote: %d lookups, budget 3 (2 accounts + code, the slot is in the store)", got)
	}
}
