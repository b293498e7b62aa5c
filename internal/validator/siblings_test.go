package validator

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/mempool"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/workload"
)

// sealSerial executes txs serially on parent and seals the block, with
// coinbase tag as its last byte: siblings built this way share their
// transaction order and differ in the coinbase alone.
func sealSerial(t *testing.T, parent *state.Snapshot, parentHeader *types.Header, txs []*types.Transaction, tag byte) *types.Block {
	t.Helper()
	params := chain.DefaultParams()
	cb := coinbase
	cb[19] = tag
	header := &types.Header{ParentHash: parentHeader.Hash(), Number: parentHeader.Number + 1, Coinbase: cb, GasLimit: params.GasLimit, Time: 7}
	res, err := chain.ExecuteSerial(parent, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	return chain.SealBlock(parentHeader, cb, header.Time, txs, res, params)
}

// validatePair validates leader and follower on one sibling record the way
// the pipeline does, the follower in its own goroutine; with sequential the
// follower starts only once the leader has returned, so every result the
// leader verified is there to take.
func validatePair(parent *state.Snapshot, parentHeader *types.Header, leader, follower *types.Block, threads int, sequential bool) (lres, fres *Result, lerr, ferr error) {
	params := chain.DefaultParams()
	sib := NewSiblings(leader)
	defer sib.Release()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lres, lerr = ValidateSibling(parent, parentHeader, leader, DefaultConfig(threads), params, sib, true)
	}()
	if sequential {
		wg.Wait()
	}
	fres, ferr = ValidateSibling(parent, parentHeader, follower, DefaultConfig(threads), params, sib, false)
	wg.Wait()
	return lres, fres, lerr, ferr
}

// sameOutcome fails t unless two validations of one block agree on every
// receipt's encoding, the bloom and the state root.
func sameOutcome(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Receipts) != len(want.Receipts) {
		t.Fatalf("%d receipts, want %d", len(got.Receipts), len(want.Receipts))
	}
	for i := range got.Receipts {
		g, w := got.Receipts[i], want.Receipts[i]
		if !bytes.Equal(g.Encode(), w.Encode()) || !bytes.Equal(g.ReturnData, w.ReturnData) || g.ContractAddress != w.ContractAddress {
			t.Fatalf("receipt %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if types.CreateBloom(got.Receipts) != types.CreateBloom(want.Receipts) {
		t.Fatal("logs bloom differs")
	}
	if got.State.Root() != want.State.Root() {
		t.Fatalf("state root %s, want %s", got.State.Root(), want.State.Root())
	}
}

// TestSiblingReuseMatchesPlainValidation validates `forks`-shaped siblings —
// two proposals on one parent from one pool, as decoded off the wire — with
// and without reuse: the leader's and the follower's receipts, bloom and
// state root must equal what plain ValidateParallel (no record) returns.
func TestSiblingReuseMatchesPlainValidation(t *testing.T) {
	cfg := workload.Default()
	cfg.NumAccounts = 600
	g := workload.New(cfg)
	parent := g.GenesisState()
	params := chain.DefaultParams()
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	reused := 0
	for height := 1; height <= 3; height++ {
		txs := g.NextBlockTxs()
		var pair [2]*types.Block
		var leaderState *state.Snapshot
		for side := range pair {
			pool := mempool.New()
			pool.AddAll(txs)
			cb := coinbase
			cb[19] = byte(side)
			res, err := core.Propose(parent, parentHeader, pool, core.ProposerConfig{Threads: 2, Coinbase: cb, Time: uint64(height)}, params)
			if err != nil {
				t.Fatal(err)
			}
			if pair[side], err = types.DecodeBlock(res.Block.Encode()); err != nil {
				t.Fatal(err)
			}
			if side == 0 {
				leaderState = res.State
			}
		}
		for _, threads := range []int{1, 2, 4} {
			for _, sequential := range []bool{false, true} {
				lres, fres, lerr, ferr := validatePair(parent, parentHeader, pair[0], pair[1], threads, sequential)
				if lerr != nil || ferr != nil {
					t.Fatalf("height %d threads %d: leader %v, follower %v", height, threads, lerr, ferr)
				}
				for i, res := range []*Result{lres, fres} {
					plain, err := ValidateParallel(parent, parentHeader, pair[i], DefaultConfig(threads), params)
					if err != nil {
						t.Fatal(err)
					}
					sameOutcome(t, res, plain)
				}
				if lres.Reused != 0 {
					t.Fatalf("the leader took %d results", lres.Reused)
				}
				reused += fres.Reused
			}
		}
		parent, parentHeader = leaderState, &pair[0].Header
	}
	if reused == 0 {
		t.Fatal("no follower took a result: the parity above checked nothing")
	}
}

// TestSiblingBaitRejected: a follower profile that hides an earlier
// transaction's write makes a later one look takeable. The leader holds only
// j (a1 → a2); the follower runs u (a0 → a1) first, which changes a1, and its
// profile drops u's access to a1, so j's last writer of a1 reads as the
// parent in both blocks. u's keys then differ from anything the leader
// verified: u executes, fails its access-set check, and the block is
// rejected before j's taken result can count.
func TestSiblingBaitRejected(t *testing.T) {
	cfg := workload.Default()
	cfg.NumAccounts = 8
	g := workload.New(cfg)
	parent := g.GenesisState()
	params := chain.DefaultParams()
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	a := g.Accounts()
	transfer := func(from, to types.Address) *types.Transaction {
		tx := &types.Transaction{From: from, To: to, Gas: 21000}
		tx.GasPrice.SetUint64(1)
		tx.Value.SetUint64(1000)
		return tx
	}
	u, j := transfer(a[0], a[1]), transfer(a[1], a[2])
	leader := sealSerial(t, parent, parentHeader, []*types.Transaction{j}, 1)
	honest := sealSerial(t, parent, parentHeader, []*types.Transaction{u, j}, 2)

	bait := *honest
	prof, err := types.DecodeBlockProfile(honest.Profile.Encode())
	if err != nil {
		t.Fatal(err)
	}
	hidden := types.AccountKey(a[1])
	up := prof.Txs[0]
	up.Reads = slices.DeleteFunc(up.Reads, func(kv types.KeyVersion) bool { return kv.Key == hidden })
	up.Writes = slices.DeleteFunc(up.Writes, func(k types.StateKey) bool { return k == hidden })
	bait.Profile = prof

	sib := NewSiblings(leader)
	defer sib.Release()
	if _, err := ValidateSibling(parent, parentHeader, leader, DefaultConfig(2), params, sib, true); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		block *types.Block
		take  int32
	}{{honest, -1}, {&bait, 0}} {
		fw := sib.follow(c.block, indexOf(c.block.Profile.Txs))
		if got := fw.take[1]; got != c.take {
			t.Fatalf("j planned to take %d, want %d", got, c.take)
		}
		fw.done()
	}
	res, err := ValidateSibling(parent, parentHeader, &bait, DefaultConfig(2), params, sib, false)
	if !errors.Is(err, ErrProfileMismatch) || res != nil {
		t.Fatalf("bait: result %v, err %v; want a profile mismatch", res, err)
	}
	res, err = ValidateSibling(parent, parentHeader, honest, DefaultConfig(2), params, sib, false)
	if err != nil {
		t.Fatalf("honest follower rejected: %v", err)
	}
	if res.Reused != 0 {
		t.Fatalf("honest follower took %d results; j's input a1 differs from the leader's", res.Reused)
	}
}

// indexOf is txs's writer index, as preparation builds it.
func indexOf(txs []*types.TxProfile) *writerIndex {
	wi := &writerIndex{head: make(map[types.StateKey]int32)}
	wi.build(txs)
	return wi
}

// lastWritersRef is the reference for depWriters: each transaction's
// dependency keys in the same order — its reads, then the account of each
// key it writes — with their last earlier writer (−1 = the parent) looked up
// in a map of the writes so far.
func lastWritersRef(txs []*types.TxProfile) (lw, off []int32) {
	last := make(map[types.StateKey]int32) // writer+1: a key no transaction wrote reads as −1
	off = []int32{0}
	for i, tp := range txs {
		for _, kv := range tp.Reads {
			lw = append(lw, last[kv.Key]-1)
		}
		for _, k := range tp.Writes {
			lw = append(lw, last[types.AccountKey(k.Addr)]-1)
		}
		for _, k := range tp.Writes {
			last[k] = int32(i) + 1
		}
		off = append(off, int32(len(lw)))
	}
	return lw, off
}

// TestSiblingDepWritersMatchReference holds the dependency writers that
// sibling reuse reads from the writer index equal to lastWritersRef's, for
// both blocks of the forks-shaped pairs of
// TestSiblingReuseMatchesPlainValidation and for the profiles of
// TestSiblingBaitRejected, the bait's hidden write included.
func TestSiblingDepWritersMatchReference(t *testing.T) {
	edges := 0
	check := func(name string, txs []*types.TxProfile) {
		t.Helper()
		lw, off := indexOf(txs).depWriters(txs, nil, nil)
		want, wantOff := lastWritersRef(txs)
		if !slices.Equal(lw, want) || !slices.Equal(off, wantOff) {
			t.Fatalf("%s: dependency writers %v at %v, reference %v at %v", name, lw, off, want, wantOff)
		}
		for _, w := range lw {
			if w >= 0 {
				edges++
			}
		}
	}

	cfg := workload.Default()
	cfg.NumAccounts = 600
	g := workload.New(cfg)
	parent := g.GenesisState()
	params := chain.DefaultParams()
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	for height := 1; height <= 3; height++ {
		txs := g.NextBlockTxs()
		var pair [2]*types.Block
		var leaderState *state.Snapshot
		for side := range pair {
			pool := mempool.New()
			pool.AddAll(txs)
			cb := coinbase
			cb[19] = byte(side)
			res, err := core.Propose(parent, parentHeader, pool, core.ProposerConfig{Threads: 2, Coinbase: cb, Time: uint64(height)}, params)
			if err != nil {
				t.Fatal(err)
			}
			pair[side] = res.Block
			check(fmt.Sprintf("height %d side %d", height, side), res.Block.Profile.Txs)
			if side == 0 {
				leaderState = res.State
			}
		}
		parent, parentHeader = leaderState, &pair[0].Header
	}
	if edges == 0 {
		t.Fatal("no transaction of the forks-shaped pairs depends on another: the parity above checked nothing")
	}

	cfg.NumAccounts = 8
	g = workload.New(cfg)
	parent = g.GenesisState()
	parentHeader = &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	a := g.Accounts()
	transfer := func(from, to types.Address) *types.Transaction {
		tx := &types.Transaction{From: from, To: to, Gas: 21000}
		tx.GasPrice.SetUint64(1)
		tx.Value.SetUint64(1000)
		return tx
	}
	u, j := transfer(a[0], a[1]), transfer(a[1], a[2])
	check("bait leader", sealSerial(t, parent, parentHeader, []*types.Transaction{j}, 1).Profile.Txs)
	honest := sealSerial(t, parent, parentHeader, []*types.Transaction{u, j}, 2)
	check("honest follower", honest.Profile.Txs)
	prof, err := types.DecodeBlockProfile(honest.Profile.Encode())
	if err != nil {
		t.Fatal(err)
	}
	hidden := types.AccountKey(a[1])
	up := prof.Txs[0]
	up.Reads = slices.DeleteFunc(up.Reads, func(kv types.KeyVersion) bool { return kv.Key == hidden })
	up.Writes = slices.DeleteFunc(up.Writes, func(k types.StateKey) bool { return k == hidden })
	check("bait follower", prof.Txs)
}

// TestSiblingCoinbaseReaderNeverTaken: a contract call that stores COINBASE
// leaves each sibling a different slot, so it is never taken from a sibling
// with another coinbase, though the two profiles and last writers match; nor
// is a later call that copies that slot, whose only differing input is the
// first call's write.
func TestSiblingCoinbaseReaderNeverTaken(t *testing.T) {
	// No calldata: slot 0 = COINBASE. Any calldata: slot 1 = slot 0.
	code, err := asm.Assemble(`
		CALLDATASIZE
		PUSH @copy
		JUMPI
		COINBASE
		PUSH0
		SSTORE
		STOP
	copy:
		JUMPDEST
		PUSH0
		SLOAD
		PUSH1 1
		SSTORE
		STOP`)
	if err != nil {
		t.Fatal(err)
	}
	contract := types.HexToAddress("0xc0ffee")
	a := []types.Address{types.HexToAddress("0xa0"), types.HexToAddress("0xa1"), types.HexToAddress("0xa2")}
	gb := state.NewGenesisBuilder()
	for _, addr := range a {
		gb.AddAccount(addr, uint256.NewInt(1<<40))
	}
	gb.AddContract(contract, uint256.NewInt(0), code, nil)
	parent := gb.Build()
	params := chain.DefaultParams()
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	tx := func(from, to types.Address, nonce, gas uint64, data []byte) *types.Transaction {
		t := &types.Transaction{From: from, To: to, Nonce: nonce, Gas: gas, Data: data}
		t.GasPrice.SetUint64(1)
		return t
	}
	txs := []*types.Transaction{
		tx(a[0], contract, 0, 100_000, nil),
		tx(a[1], a[2], 0, 21000, nil),
		tx(a[2], a[1], 0, 21000, nil),
		tx(a[0], contract, 1, 100_000, []byte{1}),
	}
	leader := sealSerial(t, parent, parentHeader, txs, 1)
	follower := sealSerial(t, parent, parentHeader, txs, 2)

	_, res, lerr, ferr := validatePair(parent, parentHeader, leader, follower, 2, true)
	if lerr != nil || ferr != nil {
		t.Fatalf("leader %v, follower %v", lerr, ferr)
	}
	if res.Reused != 2 {
		t.Fatalf("follower took %d results, want the 2 transfers", res.Reused)
	}
	want := follower.Header.Coinbase.Word()
	for _, slot := range []types.Hash{{}, types.BytesToHash([]byte{1})} {
		if got := res.State.Storage(contract, slot); got != want {
			t.Fatalf("slot %x = %x, want the follower's coinbase %x", slot, got.Bytes(), want.Bytes())
		}
	}
}

// TestSiblingLeaderRejectedPublishesPrefix: a leader rejected by its applier
// at transaction 3 leaves only its first three results takeable, and a leader
// rejected at the state root leaves them all; the genuine follower is
// accepted with its own root either way.
func TestSiblingLeaderRejectedPublishesPrefix(t *testing.T) {
	cfg := workload.Default()
	cfg.NumAccounts = 600
	cfg.TxPerBlock = 40
	g := workload.New(cfg)
	parent := g.GenesisState()
	params := chain.DefaultParams()
	parentHeader := &types.Header{Number: 0, StateRoot: parent.Root(), GasLimit: params.GasLimit}
	txs := g.NextBlockTxs()
	genuine := sealSerial(t, parent, parentHeader, txs, 1)
	follower := sealSerial(t, parent, parentHeader, txs, 2)

	badGas := *genuine
	badGas.Profile = &types.BlockProfile{Txs: append([]*types.TxProfile(nil), genuine.Profile.Txs...)}
	p3 := *badGas.Profile.Txs[3]
	p3.GasUsed++
	badGas.Profile.Txs[3] = &p3
	badRoot := *genuine
	badRoot.Header.StateRoot[0] ^= 0xff

	for _, c := range []struct {
		name   string
		leader *types.Block
		reused int
	}{{"genuine", genuine, len(txs)}, {"profile gas", &badGas, 3}, {"state root", &badRoot, len(txs)}} {
		_, res, lerr, ferr := validatePair(parent, parentHeader, c.leader, follower, 4, true)
		if (lerr == nil) != (c.leader == genuine) {
			t.Fatalf("%s leader: err %v", c.name, lerr)
		}
		if ferr != nil {
			t.Fatalf("%s leader: follower rejected: %v", c.name, ferr)
		}
		if res.State.Root() != follower.Header.StateRoot {
			t.Fatalf("%s leader: follower root %s, header %s", c.name, res.State.Root(), follower.Header.StateRoot)
		}
		if res.Reused != c.reused {
			t.Fatalf("%s leader: follower took %d results, want %d", c.name, res.Reused, c.reused)
		}
	}
}

// TestPrunedLeaderReleasesFollower: a leader validated on a nil parent, a
// state its chain has pruned, fails with chain.ErrStatePruned before it
// queues a lane. A follower on the same record must not wait for those
// lanes: it returns, and accepts by executing every transaction.
func TestPrunedLeaderReleasesFollower(t *testing.T) {
	parent, parentHeader, block := makeBlock(t, 40)
	params := chain.DefaultParams()
	sib := NewSiblings(block)
	if _, err := ValidateSibling(nil, parentHeader, block, DefaultConfig(2), params, sib, true); !errors.Is(err, chain.ErrStatePruned) {
		t.Fatalf("leader: err = %v, want %v", err, chain.ErrStatePruned)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := ValidateSibling(parent, parentHeader, block, DefaultConfig(2), params, sib, false)
		done <- outcome{res, err}
	}()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the follower still waits for the lanes of a leader that failed before queueing any")
	}
	sib.Release()
	if o.err != nil {
		t.Fatalf("follower: %v", o.err)
	}
	if o.res.Reused != 0 || o.res.State.Root() != block.Header.StateRoot {
		t.Fatalf("follower took %d results, root %s; want 0 and %s", o.res.Reused, o.res.State.Root(), block.Header.StateRoot)
	}
}
