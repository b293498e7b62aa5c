package workload

import (
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

func TestDeterministicGeneration(t *testing.T) {
	cfg := Default()
	cfg.TxPerBlock = 50
	a, b := New(cfg), New(cfg)
	for blk := 0; blk < 3; blk++ {
		ta, tb := a.NextBlockTxs(), b.NextBlockTxs()
		if len(ta) != len(tb) {
			t.Fatal("length mismatch")
		}
		for i := range ta {
			if ta[i].Hash() != tb[i].Hash() {
				t.Fatalf("block %d tx %d differs", blk, i)
			}
		}
	}
	if a.GenesisState().Root() != b.GenesisState().Root() {
		t.Fatal("genesis differs")
	}
}

func TestGenesisPopulation(t *testing.T) {
	cfg := Default()
	cfg.NumAccounts = 50
	g := New(cfg)
	s := g.GenesisState()
	for _, a := range g.Accounts() {
		if b := s.Balance(a); b.IsZero() {
			t.Fatalf("account %s unfunded", a)
		}
	}
	for _, tok := range g.tokens {
		if len(s.Code(tok)) == 0 {
			t.Fatalf("token %s missing code", tok)
		}
		if v := s.Storage(tok, g.Accounts()[0].Hash()); v.IsZero() {
			t.Fatal("token holder not seeded")
		}
	}
	for _, p := range g.pairs {
		if v := s.Storage(p, types.BytesToHash(nil)); v.IsZero() {
			t.Fatal("pair reserve0 not seeded")
		}
		if v := s.Storage(p, types.BytesToHash([]byte{1})); v.IsZero() {
			t.Fatal("pair reserve1 not seeded")
		}
	}
}

// TestBlocksExecuteSerially is the core workload sanity check: every
// generated block must execute fully (all transactions valid and
// successful) under the reference serial executor.
func TestBlocksExecuteSerially(t *testing.T) {
	cfg := Default()
	cfg.TxPerBlock = 132
	g := New(cfg)
	st := g.GenesisState()
	params := chain.DefaultParams()
	coinbase := types.HexToAddress("0xc01bbace")

	parent := types.Header{Number: 0, StateRoot: st.Root(), GasLimit: params.GasLimit}
	for blk := 0; blk < 5; blk++ {
		txs := g.NextBlockTxs()
		header := &types.Header{
			ParentHash: parent.Hash(), Number: parent.Number + 1,
			Coinbase: coinbase, GasLimit: params.GasLimit, Time: uint64(blk),
		}
		res, err := chain.ExecuteSerial(st, header, txs, params)
		if err != nil {
			t.Fatalf("block %d: %v", blk, err)
		}
		for i, r := range res.Receipts {
			if r.Status != 1 {
				t.Fatalf("block %d tx %d (to %s) reverted", blk, i, txs[i].To)
			}
		}
		block := chain.SealBlock(&parent, coinbase, uint64(blk), txs, res, params)
		st = res.State
		parent = block.Header
	}
}

// TestMixerCounters checks the per-sender counter contract end-to-end.
func TestMixerCounters(t *testing.T) {
	cfg := Default()
	cfg.TxPerBlock = 60
	cfg.NativeRatio = 0
	cfg.SwapRatio = 0
	cfg.MixerRatio = 1.0
	g := New(cfg)
	st := g.GenesisState()
	params := chain.DefaultParams()
	header := &types.Header{Number: 1, GasLimit: params.GasLimit}
	txs := g.NextBlockTxs()
	res, err := chain.ExecuteSerial(st, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	// Each tx incremented counters[sender] on its mixer.
	counts := map[types.Address]map[types.Address]uint64{}
	for _, tx := range txs {
		if counts[tx.To] == nil {
			counts[tx.To] = map[types.Address]uint64{}
		}
		counts[tx.To][tx.From]++
	}
	for mixer, senders := range counts {
		for sender, want := range senders {
			got := res.State.Storage(mixer, sender.Hash())
			if got.Uint64() != want {
				t.Fatalf("mixer %s counter for %s = %d, want %d", mixer, sender, got.Uint64(), want)
			}
		}
	}
}

// TestTokenConservation: token total supply is invariant under transfers.
func TestTokenConservation(t *testing.T) {
	cfg := Default()
	cfg.NumAccounts = 40
	cfg.TxPerBlock = 80
	cfg.NativeRatio = 0
	cfg.SwapRatio = 0
	cfg.MixerRatio = 0 // all token transfers
	g := New(cfg)
	st := g.GenesisState()
	params := chain.DefaultParams()

	header := &types.Header{Number: 1, GasLimit: params.GasLimit}
	txs := g.NextBlockTxs()
	res, err := chain.ExecuteSerial(st, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range g.tokens {
		var before, after uint64
		for _, a := range g.Accounts() {
			vb := st.Storage(tok, a.Hash())
			va := res.State.Storage(tok, a.Hash())
			before += vb.Uint64()
			after += va.Uint64()
		}
		if before != after {
			t.Fatalf("token %s supply changed: %d -> %d", tok, before, after)
		}
	}
}

// TestDeployTraffic: blocks with contract-creation transactions execute
// fully, and every deployment leaves runtime code behind.
func TestDeployTraffic(t *testing.T) {
	cfg := Default()
	cfg.NumAccounts = 200
	cfg.TxPerBlock = 40
	cfg.DeployRatio = 0.3
	g := New(cfg)
	st := g.GenesisState()
	params := chain.DefaultParams()
	header := &types.Header{Number: 1, GasLimit: params.GasLimit}
	txs := g.NextBlockTxs()
	res, err := chain.ExecuteSerial(st, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	deploys := 0
	for i, tx := range txs {
		if !tx.CreateContract {
			continue
		}
		deploys++
		r := res.Receipts[i]
		if r.Status != 1 {
			t.Fatalf("deploy tx %d reverted", i)
		}
		if len(res.State.Code(r.ContractAddress)) == 0 {
			t.Fatalf("deploy tx %d left no code at %s", i, r.ContractAddress)
		}
	}
	if deploys == 0 {
		t.Fatal("DeployRatio produced no deployments")
	}
}

// TestNativeSupplyConservation: total native currency after a block equals
// the genesis supply plus exactly one block reward — fees only move value
// to the coinbase, and every transfer is zero-sum.
func TestNativeSupplyConservation(t *testing.T) {
	cfg := Default()
	cfg.NumAccounts = 120
	cfg.TxPerBlock = 60
	g := New(cfg)
	st := g.GenesisState()
	params := chain.DefaultParams()
	before := st.TotalBalance()

	header := &types.Header{Number: 1, Coinbase: types.HexToAddress("0xc0"), GasLimit: params.GasLimit}
	res, err := chain.ExecuteSerial(st, header, g.NextBlockTxs(), params)
	if err != nil {
		t.Fatal(err)
	}
	after := res.State.TotalBalance()
	var want = before
	var reward = *u256(params.BlockReward)
	want.Add(&want, &reward)
	if !after.Eq(&want) {
		t.Fatalf("supply %s -> %s, want %s", before.String(), after.String(), want.String())
	}
}

func u256(v uint64) *uint256.Int { return uint256.NewInt(v) }

// TestTokenTransfersEmitLogs: successful token transfers log a Transfer
// event whose topic is the recipient.
func TestTokenTransfersEmitLogs(t *testing.T) {
	cfg := Default()
	cfg.NumAccounts = 60
	cfg.TxPerBlock = 40
	cfg.NativeRatio = 0
	cfg.SwapRatio = 0
	cfg.MixerRatio = 0 // all token transfers
	g := New(cfg)
	st := g.GenesisState()
	params := chain.DefaultParams()
	header := &types.Header{Number: 1, GasLimit: params.GasLimit}
	txs := g.NextBlockTxs()
	res, err := chain.ExecuteSerial(st, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Receipts {
		if len(r.Logs) != 1 {
			t.Fatalf("tx %d: %d logs", i, len(r.Logs))
		}
		l := r.Logs[0]
		if l.Address != txs[i].To {
			t.Fatalf("tx %d: log from %s, want token %s", i, l.Address, txs[i].To)
		}
		if len(l.Topics) != 1 {
			t.Fatalf("tx %d: %d topics", i, len(l.Topics))
		}
	}
}

// TestSwapConstantProduct: the pair keeps its product invariant
// (newIn * newOut == k exactly when division is exact; never increases).
func TestSwapConstantProduct(t *testing.T) {
	cfg := Default()
	cfg.TxPerBlock = 40
	cfg.NativeRatio = 0
	cfg.SwapRatio = 1.0
	cfg.MixerRatio = 0
	g := New(cfg)
	st := g.GenesisState()
	params := chain.DefaultParams()
	header := &types.Header{Number: 1, GasLimit: params.GasLimit}
	txs := g.NextBlockTxs()
	res, err := chain.ExecuteSerial(st, header, txs, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range g.pairs {
		r0b := st.Storage(p, types.BytesToHash(nil))
		r1b := st.Storage(p, types.BytesToHash([]byte{1}))
		r0a := res.State.Storage(p, types.BytesToHash(nil))
		r1a := res.State.Storage(p, types.BytesToHash([]byte{1}))
		if r0a.IsZero() || r1a.IsZero() {
			t.Fatalf("pair %s drained", p)
		}
		// Product never increases (integer division truncation only shrinks it).
		var pb, pa = r0b, r0a
		pb.Mul(&pb, &r1b)
		pa.Mul(&pa, &r1a)
		if pa.Gt(&pb) {
			t.Fatalf("pair %s product grew", p)
		}
	}
}
