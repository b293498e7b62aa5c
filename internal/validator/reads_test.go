package validator

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// spinCounter spins CALLDATALOAD(0) times and only then increments slot 0:
// each call's one dependent read comes after its compute prefix.
var spinCounter = asm.MustAssemble(`
		PUSH0
		CALLDATALOAD
	loop:
		JUMPDEST
		DUP1
		ISZERO
		PUSH @done
		JUMPI
		PUSH1 1
		SWAP1
		SUB
		PUSH @loop
		JUMP
	done:
		JUMPDEST
		POP
		PUSH0
		SLOAD
		PUSH1 1
		ADD
		PUSH0
		SSTORE
		STOP`)

// setter stores the word v = CALLDATALOAD(0) in slot 0 and reverts when
// CALLDATALOAD(32) is not zero; v = 0 copies slot 0 to slot 1 instead.
var setter = asm.MustAssemble(`
		PUSH0
		CALLDATALOAD
		DUP1
		PUSH @set
		JUMPI
		POP
		PUSH0
		SLOAD
		PUSH1 1
		SSTORE
		STOP
	set:
		JUMPDEST
		PUSH0
		SSTORE
		PUSH1 32
		CALLDATALOAD
		PUSH @fail
		JUMPI
		STOP
	fail:
		JUMPDEST
		PUSH0
		PUSH0
		REVERT`)

var (
	spinAddr   = types.HexToAddress("0x5917")
	setterAddr = types.HexToAddress("0x5e77")
)

// readRulesGenesis holds eight funded senders and the two contracts.
func readRulesGenesis(t *testing.T) (*state.Snapshot, *types.Header, []types.Address) {
	t.Helper()
	gb := state.NewGenesisBuilder()
	var senders []types.Address
	for i := range 8 {
		a := types.HexToAddress(fmt.Sprintf("0xa%d", i))
		senders = append(senders, a)
		gb.AddAccount(a, uint256.NewInt(1<<50))
	}
	gb.AddContract(spinAddr, uint256.NewInt(0), spinCounter, nil)
	gb.AddContract(setterAddr, uint256.NewInt(0), setter, nil)
	parent := gb.Build()
	return parent, &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: chain.DefaultParams().GasLimit}, senders
}

// words is call data of 32-byte big-endian words.
func words(ws ...uint64) []byte {
	data := make([]byte, 32*len(ws))
	for i, w := range ws {
		b := uint256.NewInt(w).Bytes32()
		copy(data[32*i:], b[:])
	}
	return data
}

func call(from, to types.Address, nonce uint64, data []byte) *types.Transaction {
	tx := &types.Transaction{From: from, To: to, Nonce: nonce, Gas: 5_000_000, Data: data}
	tx.GasPrice.SetUint64(1)
	return tx
}

// within runs f and fails t if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s has not returned after %v", what, d)
	}
}

// TestReadRules holds the lanes' reader to one block per read rule, each
// sealed by a serial execution and validated at one to four threads: the
// block must be accepted with the serial root, and the state must read what
// the rule says.
//
//	slot chain   — every call's one dependent SLOAD follows a long spin, so
//	               lanes run the prefixes together and wait at the read;
//	nonce chain  — one sender's calls, whose first read is its nonce;
//	reverted     — a call stores slot 0 and reverts: its profile writes the
//	               slot, its write set does not, so a later read of the slot
//	               must fall through to the earlier writer's value;
//	deploy       — a contract deployed and called in one block: the call
//	               takes the code and its hash from the deploy's write set.
func TestReadRules(t *testing.T) {
	parent, parentHeader, a := readRulesGenesis(t)
	params := chain.DefaultParams()
	slot0, slot1 := types.Hash{}, types.BytesToHash([]byte{1})

	// The deployed contract stores CALLER in slot 0; its init code returns it.
	runtime := asm.MustAssemble("CALLER\nPUSH0\nSSTORE\nSTOP")
	deploy := append(asm.MustAssemble(fmt.Sprintf("PUSH1 %d\nPUSH1 10\nPUSH0\nCODECOPY\nPUSH1 %d\nPUSH0\nRETURN", len(runtime), len(runtime))), runtime...)
	created := types.CreateAddress(a[0], 0)
	create := call(a[0], types.Address{}, 0, deploy)
	create.CreateContract = true

	var slotChain, nonceChain []*types.Transaction
	for i := range 8 {
		slotChain = append(slotChain, call(a[i], spinAddr, 0, words(20000)))
		nonceChain = append(nonceChain, call(a[0], spinAddr, uint64(i), words(uint64(300*(8-i)))))
	}
	for _, c := range []struct {
		name  string
		txs   []*types.Transaction
		check func(*state.Snapshot) error
	}{
		{"slot chain", slotChain, func(s *state.Snapshot) error {
			if got := s.Storage(spinAddr, slot0); got != *uint256.NewInt(8) {
				return fmt.Errorf("counter %s, want 8", got.String())
			}
			return nil
		}},
		{"nonce chain", nonceChain, func(s *state.Snapshot) error {
			if got := s.Nonce(a[0]); got != 8 {
				return fmt.Errorf("sender nonce %d, want 8", got)
			}
			return nil
		}},
		{"reverted", []*types.Transaction{
			call(a[0], setterAddr, 0, words(5, 0)),
			call(a[1], setterAddr, 0, words(9, 1)),
			call(a[2], setterAddr, 0, words(0, 0)),
		}, func(s *state.Snapshot) error {
			if v0, v1 := s.Storage(setterAddr, slot0), s.Storage(setterAddr, slot1); v0 != *uint256.NewInt(5) || v1 != v0 {
				return fmt.Errorf("slots %s, %s; want 5, 5", v0.String(), v1.String())
			}
			return nil
		}},
		{"deploy", []*types.Transaction{create, call(a[1], created, 0, nil), call(a[2], created, 0, nil)}, func(s *state.Snapshot) error {
			if got := s.Storage(created, slot0); got != a[2].Word() {
				return fmt.Errorf("slot 0 %x, want the last caller", got.Bytes())
			}
			return nil
		}},
	} {
		block := sealSerial(t, parent, parentHeader, c.txs, 1)
		if c.name == "reverted" {
			// The case's premise: the profile lists the reverted call's write.
			if w := block.Profile.Txs[1].Writes; !slices.Contains(w, types.StorageKey(setterAddr, slot0)) {
				t.Fatalf("reverted: the reverting call's profile writes %v, not slot 0", w)
			}
		}
		for threads := 1; threads <= 4; threads++ {
			res, err := ValidateParallel(parent, parentHeader, block, DefaultConfig(threads), params)
			if err != nil {
				t.Fatalf("%s, threads=%d: %v", c.name, threads, err)
			}
			if err := c.check(res.State); err != nil {
				t.Fatalf("%s, threads=%d: %v", c.name, threads, err)
			}
		}
	}
}

// TestReadRulesFailureInChain: a profile gas lie at position k of a slot
// chain fails k after its spin, while later positions wait on k's write or
// have run into it. The verdict is k at every thread count, the validation
// returns, and every position of the result array has finished: those that
// read a failed writer stopped, and those past k were skipped.
func TestReadRulesFailureInChain(t *testing.T) {
	parent, parentHeader, a := readRulesGenesis(t)
	params := chain.DefaultParams()
	var txs []*types.Transaction
	for i := range 8 {
		txs = append(txs, call(a[i], spinAddr, 0, words(20000)), call(a[i], spinAddr, 1, words(20000)))
	}
	const k = 5
	bad := *sealSerial(t, parent, parentHeader, txs, 1)
	bad.Profile = &types.BlockProfile{Txs: append([]*types.TxProfile(nil), bad.Profile.Txs...)}
	pk := *bad.Profile.Txs[k]
	pk.GasUsed++
	bad.Profile.Txs[k] = &pk
	reseal(&bad)
	want := fmt.Sprintf("tx %d used", k)
	for threads := 1; threads <= 4; threads++ {
		var err error
		within(t, 20*time.Second, fmt.Sprintf("threads=%d: ValidateParallel", threads), func() {
			_, err = ValidateParallel(parent, parentHeader, &bad, DefaultConfig(threads), params)
		})
		if !errors.Is(err, ErrProfileMismatch) || !strings.Contains(err.Error(), want) {
			t.Fatalf("threads=%d: err = %v, want the profile mismatch at tx %d", threads, err, k)
		}
		// A leader's result array outlives its validation: read its states.
		sib := NewSiblings(&bad)
		within(t, 20*time.Second, fmt.Sprintf("threads=%d: leader", threads), func() {
			_, err = ValidateSibling(parent, parentHeader, &bad, DefaultConfig(threads), params, sib, true)
		})
		for i := range sib.results {
			if s := sib.results[i].state.Load(); s == pending || (i >= k) != (s == failed) {
				t.Fatalf("threads=%d: position %d left in state %d", threads, i, s)
			}
		}
		sib.Release()
	}
}

// TestReadWriters: the assign event names, per transaction, 1 + the newest
// writer below it that any of its reads waits on (0 for none), and how many
// of its reads have a writer.
func TestReadWriters(t *testing.T) {
	a := types.AccountKey(types.Address{1})
	b := types.AccountKey(types.Address{2})
	c := types.AccountKey(types.Address{3})
	txs := []*types.TxProfile{
		{Reads: []types.KeyVersion{{Key: a}}, Writes: []types.StateKey{a}},
		{Writes: []types.StateKey{b}},
		{Reads: []types.KeyVersion{{Key: a}, {Key: b}, {Key: c}}, Writes: []types.StateKey{a}},
		{Reads: []types.KeyVersion{{Key: a}}},
		{},
	}
	wi := indexOf(txs)
	for i, want := range [][2]int{{0, 0}, {0, 0}, {2, 2}, {3, 1}, {0, 0}} {
		if w, n := wi.readWriters(txs[i].Reads, int32(i)); w != want[0] || n != want[1] {
			t.Errorf("tx %d: writer %d, reads %d; want %d, %d", i, w, n, want[0], want[1])
		}
	}
}
