package state_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/evm"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// The overlay's reuse contract (DESIGN.md): an overlay that has run one
// execution and been Reset is indistinguishable from a fresh one, and nothing
// an execution handed out by value is touched by the next.

// loggingReader records, in order, every call that reaches a Reader.
type loggingReader struct {
	state.Reader
	calls []string
}

func (l *loggingReader) Account(a types.Address) (state.Account, bool) {
	l.calls = append(l.calls, "account "+a.String())
	return l.Reader.Account(a)
}

func (l *loggingReader) Code(a types.Address) []byte {
	l.calls = append(l.calls, "code "+a.String())
	return l.Reader.Code(a)
}

func (l *loggingReader) Storage(a types.Address, s types.Hash) uint256.Int {
	l.calls = append(l.calls, "slot "+a.String()+s.String())
	return l.Reader.Storage(a, s)
}

// runProgram drives o through a seeded random program of every Overlay
// operation — reads, writes, SetCode, logs, refunds, nested Snapshot /
// RevertToSnapshot — over the budget genesis plus absent accounts, and
// returns the value every call returned, in order.
func runProgram(o *state.Overlay, seed int64, steps int) []string {
	r := rand.New(rand.NewSource(seed))
	addrs := []types.Address{budgetAlice, budgetBob, budgetCarol, budgetContract,
		types.HexToAddress("0xab5e47"), types.HexToAddress("0xab5e48")}
	addr := func() types.Address { return addrs[r.Intn(len(addrs))] }
	slot := func() types.Hash { return types.Hash{31: byte(r.Intn(4))} }
	var out []string
	note := func(v ...any) { out = append(out, fmt.Sprint(v...)) }
	var snaps []int
	for i := 0; i < steps; i++ {
		switch r.Intn(18) {
		case 0:
			b := o.GetBalance(addr())
			note("balance ", b.String())
		case 1:
			note("nonce ", o.GetNonce(addr()))
		case 2:
			note("exists ", o.Exists(addr()))
		case 3:
			o.SetBalance(addr(), uint256.NewInt(uint64(r.Intn(1000))))
		case 4:
			o.AddBalance(addr(), uint256.NewInt(uint64(r.Intn(1000))))
		case 5:
			o.SubBalance(addr(), uint256.NewInt(uint64(r.Intn(1000))))
		case 6:
			o.SetNonce(addr(), uint64(r.Intn(50)))
		case 7:
			note("code ", o.GetCode(addr()))
		case 8:
			note("codehash ", o.GetCodeHash(addr()))
		case 9:
			note("codesize ", o.GetCodeSize(addr()))
		case 10:
			code := make([]byte, 1+r.Intn(40))
			r.Read(code)
			o.SetCode(addr(), code)
		case 11, 12:
			v := o.GetState(addr(), slot())
			note("slot ", v.String())
		case 13, 14:
			o.SetState(addr(), slot(), *uint256.NewInt(uint64(r.Intn(3)))) // zero included
		case 15:
			o.AddLog(&types.Log{Address: addr(), Data: []byte{byte(i)}})
			o.AddRefund(uint64(r.Intn(100)))
			o.SubRefund(uint64(r.Intn(100)))
		case 16:
			snaps = append(snaps, o.Snapshot())
		case 17:
			if n := len(snaps); n > 0 {
				to := r.Intn(n) // unwinds every snapshot nested inside it
				o.RevertToSnapshot(snaps[to])
				snaps = snaps[:to]
			}
		}
	}
	return out
}

func TestOverlayResetEqualsFresh(t *testing.T) {
	genesis := budgetGenesis()
	for seed := int64(1); seed <= 60; seed++ {
		freshBase := &loggingReader{Reader: genesis}
		fresh := state.NewOverlay(freshBase, 7)
		want := runProgram(fresh, seed, 120)

		// The reused overlay first runs a different program over a different
		// base and version, growing maps, entries and journal the Reset keeps.
		reused := state.NewOverlay(state.NewMemory(genesis), 3)
		runProgram(reused, seed+1000, 200)
		reusedBase := &loggingReader{Reader: genesis}
		reused.Reset(reusedBase, 7)
		if v, n := reused.Version(), len(reused.Access().Reads)+len(reused.Access().Writes); v != 7 || n != 0 {
			t.Fatalf("seed %d: after Reset version %d, %d access keys", seed, v, n)
		}
		got := runProgram(reused, seed, 120)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: return values differ after Reset", seed)
		}
		if !reflect.DeepEqual(reused.Access(), fresh.Access()) {
			t.Fatalf("seed %d: access sets differ after Reset", seed)
		}
		if !reflect.DeepEqual(reused.ChangeSet(), fresh.ChangeSet()) {
			t.Fatalf("seed %d: change sets differ after Reset", seed)
		}
		if !reflect.DeepEqual(reused.Logs(), fresh.Logs()) || reused.GetRefund() != fresh.GetRefund() {
			t.Fatalf("seed %d: logs or refund differ after Reset", seed)
		}
		if !reflect.DeepEqual(reusedBase.calls, freshBase.calls) {
			t.Fatalf("seed %d: the base saw different calls after Reset:\n%v\n%v", seed, reusedBase.calls, freshBase.calls)
		}
	}
}

// survivors is everything a transaction hands on from its overlay.
type survivors struct {
	receipt *types.Receipt
	changes *state.ChangeSet
	profile *types.TxProfile
}

// deepCopy renders s into values that share no memory with it.
func (s survivors) deepCopy() survivors {
	r := *s.receipt
	r.ReturnData = bytes.Clone(s.receipt.ReturnData)
	r.Logs = nil
	for _, l := range s.receipt.Logs {
		r.Logs = append(r.Logs, &types.Log{Address: l.Address, Topics: append([]types.Hash(nil), l.Topics...), Data: bytes.Clone(l.Data)})
	}
	cs := &state.ChangeSet{Accounts: slices.Clone(s.changes.Accounts)}
	for i := range cs.Accounts {
		cs.Accounts[i].Code = bytes.Clone(cs.Accounts[i].Code)
		cs.Accounts[i].Slots = slices.Clone(cs.Accounts[i].Slots)
	}
	p := &types.TxProfile{GasUsed: s.profile.GasUsed,
		Reads: append([]types.KeyVersion(nil), s.profile.Reads...), Writes: append([]types.StateKey(nil), s.profile.Writes...)}
	return survivors{receipt: &r, changes: cs, profile: p}
}

// TestResetDoesNotAliasSurvivors: the receipt's Logs and ReturnData, the
// ChangeSet's code and storage and the sealed TxProfile of transaction i are
// the same, to the byte, after transaction i+1 has run on the same overlay.
func TestResetDoesNotAliasSurvivors(t *testing.T) {
	// The contract bumps slot 0, logs the new value and returns it.
	emitter := asm.MustAssemble(`
		PUSH1 0
		SLOAD
		PUSH1 1
		ADD
		DUP1
		PUSH1 0
		SSTORE
		PUSH1 0
		MSTORE
		PUSH1 0xaa
		PUSH1 32
		PUSH1 0
		LOG1
		PUSH1 32
		PUSH1 0
		RETURN`)
	// Init code that returns 16 bytes of itself as the deployed code.
	deploy := asm.MustAssemble("PUSH1 16\nPUSH1 0\nPUSH1 0\nCODECOPY\nPUSH1 16\nPUSH1 0\nRETURN")
	genesis := state.NewGenesisBuilder().
		AddAccount(budgetAlice, uint256.NewInt(100_000_000)).
		AddAccount(budgetBob, uint256.NewInt(1_000_000)).
		AddContract(budgetContract, uint256.NewInt(0), emitter, map[types.Hash]uint256.Int{{}: *uint256.NewInt(7)}).
		Build()

	txs := []*types.Transaction{
		budgetTx(0, budgetContract, 0),
		{Nonce: 1, Gas: 200_000, From: budgetAlice, Data: deploy, CreateContract: true},
		budgetTx(2, budgetContract, 5),
		budgetTx(3, budgetBob, 1000),
		{Nonce: 4, Gas: 200_000, From: budgetAlice, Data: append(deploy, 0xfe), CreateContract: true},
		budgetTx(5, budgetContract, 0),
	}
	for _, tx := range txs {
		tx.GasPrice.SetUint64(1)
	}

	accum := state.NewMemory(genesis)
	o := state.NewOverlay(accum, 0)
	var held, copies []survivors
	for i, tx := range txs {
		o.Reset(accum, types.Version(i))
		receipt, _, err := chain.ApplyTransaction(o, tx, evm.BlockContext{GasLimit: 1e7})
		if err != nil || receipt.Status != 1 {
			t.Fatalf("tx %d: %v, receipt %+v", i, err, receipt)
		}
		s := survivors{receipt: receipt, changes: o.ChangeSet(), profile: types.ProfileFromAccessSet(o.Access(), receipt.GasUsed)}
		accum.ApplyChangeSet(s.changes)
		held, copies = append(held, s), append(copies, s.deepCopy())
		for j := range held {
			if !reflect.DeepEqual(held[j], copies[j]) {
				t.Fatalf("running tx %d on the same overlay changed what tx %d handed out", i, j)
			}
		}
	}
	// The program must actually have produced every kind of survivor.
	if len(held[0].receipt.Logs) != 1 || len(held[0].receipt.ReturnData) != 32 || len(held[0].changes.Account(budgetContract).Slots) != 1 {
		t.Fatalf("tx 0 handed out %+v", held[0].receipt)
	}
	deployed := held[1].changes.Account(held[1].receipt.ContractAddress)
	if deployed == nil || !deployed.CodeSet || len(deployed.Code) != 16 {
		t.Fatalf("tx 1 deployed %+v", deployed)
	}
}

var benchReceipt *types.Receipt

// BenchmarkApplyTransactionReused is one token-style contract call per
// iteration on a lane's overlay, the way every executor runs it: Reset,
// ApplyTransaction, ChangeSet.
func BenchmarkApplyTransactionReused(b *testing.B) {
	genesis := budgetGenesis()
	tx := budgetTx(0, budgetContract, 0)
	o := state.NewOverlay(genesis, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Reset(genesis, 0)
		r, _, err := chain.ApplyTransaction(o, tx, evm.BlockContext{GasLimit: 1e7})
		if err != nil {
			b.Fatal(err)
		}
		benchReceipt = r
		if cs := o.ChangeSet(); len(cs.Accounts) != 2 {
			b.Fatalf("change set has %d accounts", len(cs.Accounts))
		}
	}
}
