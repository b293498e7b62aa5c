package core

import (
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/evm"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/workload"
)

// The snapshot-extension schedules (DESIGN.md §5, "Snapshot extension"): two
// or three executions over one MVState, interleaved by hand on one goroutine,
// so each case is one exact schedule rather than whatever the scheduler gives.

var (
	extAlice, extBob, extCarol = types.HexToAddress("0xa11ce"), types.HexToAddress("0xb0b"), types.HexToAddress("0xca401")
	extCounter                 = types.HexToAddress("0xc0de")
	extSlot0, extSlot9         = types.Hash{}, types.Hash{31: 9}
)

// schedule is the fixture: three funded EOAs and a payable counter contract
// (slot0++ per call, after a little arithmetic so the SLOAD is not the first
// thing the call does) under a fresh MVState.
type schedule struct {
	t      *testing.T
	parent *state.Snapshot
	mv     *MVState
	params chain.Params
	header *types.Header
	bc     evm.BlockContext

	sealed []*types.Transaction // commit order
	fees   uint256.Int
}

func newSchedule(t *testing.T) *schedule {
	code := asm.MustAssemble("PUSH1 2\nPUSH1 3\nMUL\nPOP\nPUSH1 0\nSLOAD\nPUSH1 1\nADD\nPUSH1 0\nSSTORE\nSTOP")
	parent := state.NewGenesisBuilder().
		AddAccount(extAlice, uint256.NewInt(10_000_000)).
		AddAccount(extBob, uint256.NewInt(10_000_000)).
		AddAccount(extCarol, uint256.NewInt(10_000_000)).
		AddContract(extCounter, uint256.NewInt(0), code, nil).
		Build()
	params := chain.DefaultParams()
	header := &types.Header{Number: 1, Coinbase: coinbase, GasLimit: params.GasLimit, Time: 1}
	return &schedule{
		t: t, parent: parent, mv: NewMVState(parent), params: params,
		header: header, bc: chain.BlockContextFor(header, params.ChainID),
	}
}

func extTx(from, to types.Address, nonce, value uint64) *types.Transaction {
	tx := &types.Transaction{Nonce: nonce, Gas: 100_000, From: from, To: to}
	tx.GasPrice.SetUint64(1)
	tx.Value.SetUint64(value)
	return tx
}

// beforeStorage runs fn once, ahead of the first storage read it forwards: the
// point inside an execution where the other transaction of a schedule commits.
type beforeStorage struct {
	state.Reader
	fn func()
}

func (r *beforeStorage) Storage(addr types.Address, slot types.Hash) uint256.Int {
	if fn := r.fn; fn != nil {
		r.fn = nil
		fn()
	}
	return r.Reader.Storage(addr, slot)
}

// begin opens an execution of tx on a bound view of its own, as a proposer
// lane does.
func (s *schedule) begin(tx *types.Transaction) *mvView {
	view := s.mv.bind(0, 0, s.header.Number)
	view.begin(tx)
	return view
}

// exec runs tx to the end on a bound view; midway, when set, fires right
// before the execution's first SLOAD reaches the view.
func (s *schedule) exec(tx *types.Transaction, midway func()) (*mvView, *uint256.Int) {
	s.t.Helper()
	view := s.begin(tx)
	if midway != nil {
		view.overlay.Reset(&beforeStorage{Reader: view, fn: midway}, view.overlay.Version())
	}
	receipt, fee, err := chain.ApplyTransaction(view.overlay, tx, s.bc)
	if err != nil || receipt.Status != 1 {
		s.t.Fatalf("apply %s: %v, receipt %+v", tx.Hash(), err, receipt)
	}
	return view, fee
}

// commit is TryCommit on what the view's overlay recorded.
func (s *schedule) commit(view *mvView, fee *uint256.Int) (types.Version, bool) {
	v, _, ok := s.mv.TryCommit(view.overlay.Access(), view.overlay.ChangeSet())
	if ok {
		s.sealed = append(s.sealed, view.tx)
		s.fees.Add(&s.fees, fee)
	}
	return v, ok
}

// mustRun executes and commits tx with nothing in between.
func (s *schedule) mustRun(tx *types.Transaction) types.Version {
	s.t.Helper()
	view, fee := s.exec(tx, nil)
	v, ok := s.commit(view, fee)
	if !ok {
		s.t.Fatalf("uncontended %s aborted", tx.Hash())
	}
	return v
}

// checkSerial seals what was committed the way blockBuild.seal does and
// demands the root chain.ExecuteSerial gives for the same order.
func (s *schedule) checkSerial() {
	s.t.Helper()
	total := s.mv.Flatten()
	chain.Finalize(s.parent, total, coinbase, &s.fees, s.params)
	_, root := chain.CommitAndRoot(s.parent, total, s.params, s.header.Number)
	serial, err := chain.ExecuteSerial(s.parent, s.header, s.sealed, s.params)
	if err != nil {
		s.t.Fatal(err)
	}
	if serial.State.Root() != root {
		s.t.Fatalf("commit order is not a serial order: serial root %s, committed %s", serial.State.Root(), root)
	}
}

func readVersions(t *testing.T, o *state.Overlay, want types.Version) {
	t.Helper()
	if o.Version() != want {
		t.Fatalf("overlay at version %d, want %d", o.Version(), want)
	}
	for key, v := range o.Access().Reads {
		if v != want {
			t.Fatalf("read of %s stamped %d, want %d", key, v, want)
		}
	}
}

// (1) T1 pins version 0 and reads its sender and the contract; T2 commits a
// call that rewrites slot 0; T1's SLOAD would be stale. Everything T1 holds is
// still current, so it re-bases on T2's commit, sees T2's value and commits.
func TestExtensionRescuesDoomedRead(t *testing.T) {
	s := newSchedule(t)
	var t2 types.Version
	view, fee := s.exec(extTx(extAlice, extCounter, 0, 0), func() {
		t2 = s.mustRun(extTx(extBob, extCounter, 0, 0))
	})
	readVersions(t, view.overlay, t2)
	if got := view.overlay.GetState(extCounter, extSlot0); got.Uint64() != 2 {
		t.Fatalf("slot 0 = %d after T1, want 2 (T2's 1, incremented)", got.Uint64())
	}
	if v, ok := s.commit(view, fee); !ok || v != t2+1 {
		t.Fatalf("extended execution: commit ok=%v version %d, want version %d", ok, v, t2+1)
	}
	s.checkSerial()
}

// (2) T2's commit also writes a key T1 already holds (it pays the contract, so
// the contract's account key moves): the extension is declined, T1 is served
// the value of its own snapshot and aborts at commit, as it always has.
func TestExtensionDeclinedWhenHeldKeyMoved(t *testing.T) {
	s := newSchedule(t)
	view, fee := s.exec(extTx(extAlice, extCounter, 0, 0), func() {
		s.mustRun(extTx(extBob, extCounter, 0, 5))
	})
	readVersions(t, view.overlay, 0)
	if got := view.overlay.GetState(extCounter, extSlot0); got.Uint64() != 1 {
		t.Fatalf("slot 0 = %d after T1, want 1 (the stale 0, incremented)", got.Uint64())
	}
	if _, ok := s.commit(view, fee); ok {
		t.Fatal("execution on a stale read committed")
	}
	// Retried from the pool, it lands.
	s.mustRun(extTx(extAlice, extCounter, 0, 0))
	s.checkSerial()
}

// (3) The hazard of validating recorded reads only: a blind SetState caches
// the contract's nonce and balance without recording a read. T2 then changes
// that balance. Re-basing T1 would let a later GetBalance stamp the cached,
// stale balance with the new version and commit it.
func TestExtensionValidatesUnrecordedCachedAccounts(t *testing.T) {
	s := newSchedule(t)
	view := s.begin(extTx(extAlice, extCounter, 0, 0))
	o := view.overlay
	o.SetState(extCounter, extSlot9, *uint256.NewInt(7))
	if _, recorded := o.Access().Reads[types.AccountKey(extCounter)]; recorded {
		t.Fatal("fixture: SetState recorded an account read; the case needs a cached, unrecorded account")
	}
	s.mustRun(extTx(extBob, extCounter, 0, 5)) // balance 0 → 5, slot 0 → 1

	if got := o.GetState(extCounter, extSlot0); got.Uint64() != 0 {
		t.Fatalf("slot 0 = %d, want the snapshot's 0: the extension must be declined", got.Uint64())
	}
	readVersions(t, o, 0)
	if got := o.GetBalance(extCounter); got.Uint64() != 0 {
		t.Fatalf("cached balance %d, want 0", got.Uint64())
	}
	if _, _, ok := s.mv.TryCommit(o.Access(), o.ChangeSet()); ok {
		t.Fatal("a stale cached balance committed")
	}
}

// (4) The key being fetched is not part of what must still be current:
// GetBalance records its read before the account is loaded, and the account
// itself is the stale key.
func TestExtensionExcludesTheFetchedKey(t *testing.T) {
	s := newSchedule(t)
	view := s.begin(extTx(extAlice, extCarol, 0, 1))
	o := view.overlay
	if o.GetNonce(extAlice) != 0 {
		t.Fatal("fixture: alice's nonce")
	}
	t2 := s.mustRun(extTx(extBob, extCarol, 0, 1000))
	if got := o.GetBalance(extCarol); got.Uint64() != 10_001_000 {
		t.Fatalf("carol's balance %d, want T2's 10001000", got.Uint64())
	}
	readVersions(t, o, t2)
	if len(o.Access().Reads) != 2 {
		t.Fatalf("%d reads recorded, want alice and carol", len(o.Access().Reads))
	}
	if _, _, ok := s.mv.TryCommit(o.Access(), o.ChangeSet()); !ok {
		t.Fatal("extended read set refused")
	}
}

// (5) A view with no overlay has no read set to keep current: it stays where
// it was pinned, whatever commits.
func TestPinnedViewNeverExtends(t *testing.T) {
	s := newSchedule(t)
	pinned := s.mv.View(0)
	if bal := balanceOf(pinned, extAlice); bal.Uint64() != 10_000_000 {
		t.Fatal("fixture: alice's balance")
	}
	s.mustRun(extTx(extBob, extCounter, 0, 5))
	s.mustRun(extTx(extAlice, extCounter, 0, 0))
	if got := pinned.Storage(extCounter, extSlot0); !got.IsZero() {
		t.Fatalf("pinned view read slot 0 = %d", got.Uint64())
	}
	if acct, _ := pinned.Account(extCounter); !acct.Balance.IsZero() {
		t.Fatalf("pinned view read the contract's balance as %d", acct.Balance.Uint64())
	}
	if got := s.mv.View(2).Storage(extCounter, extSlot0); got.Uint64() != 2 {
		t.Fatalf("view at 2 read slot 0 = %d", got.Uint64())
	}
}

// An extension between Snapshot and RevertToSnapshot moves versions only: the
// journal, the buffered writes and what a revert restores are untouched.
func TestExtensionInsideCallFrame(t *testing.T) {
	s := newSchedule(t)
	view := s.begin(extTx(extAlice, extCounter, 0, 0))
	o := view.overlay
	o.SubBalance(extAlice, uint256.NewInt(100))
	snap := o.Snapshot()
	o.SetState(extCounter, extSlot9, *uint256.NewInt(7))
	o.AddBalance(extAlice, uint256.NewInt(40))

	t2 := s.mustRun(extTx(extBob, extCounter, 0, 0))
	if got := o.GetState(extCounter, extSlot0); got.Uint64() != 1 {
		t.Fatalf("slot 0 = %d, want T2's 1", got.Uint64())
	}
	readVersions(t, o, t2)
	if got := o.GetState(extCounter, extSlot9); got.Uint64() != 7 {
		t.Fatalf("buffered write reads %d after the extension, want 7", got.Uint64())
	}

	o.RevertToSnapshot(snap)
	if o.Snapshot() != snap {
		t.Fatalf("journal at %d after the revert, want %d", o.Snapshot(), snap)
	}
	if got := o.GetBalance(extAlice); got.Uint64() != 10_000_000-100 {
		t.Fatalf("alice's balance %d after the revert", got.Uint64())
	}
	if got := o.GetState(extCounter, extSlot9); !got.IsZero() {
		t.Fatalf("reverted slot reads %d", got.Uint64())
	}
	if got := o.GetState(extCounter, extSlot0); got.Uint64() != 1 {
		t.Fatalf("slot 0 = %d after the revert, want T2's 1", got.Uint64())
	}
	cs := o.ChangeSet()
	if ch := cs.Account(extCounter); ch != nil {
		t.Fatalf("reverted frame left a change on the contract: %+v", ch)
	}
	if ch := cs.Account(extAlice); ch == nil || ch.Balance.Uint64() != 10_000_000-100 {
		t.Fatalf("alice's surviving change: %+v", ch)
	}
	readVersions(t, o, t2)
	if _, _, ok := s.mv.TryCommit(o.Access(), cs); !ok {
		t.Fatal("commit refused")
	}
}

// What the extension check covers is what the view has served. That has to
// take in every read the overlay recorded: a read on record but outside the
// check would be re-stamped without having been looked at.
func TestBoundViewHoldsEveryRecordedRead(t *testing.T) {
	cfg := workload.Default()
	g := workload.New(cfg)
	parent, txs := g.GenesisState(), g.NextBlockTxs()
	params := chain.DefaultParams()
	header := &types.Header{Number: 1, Coinbase: coinbase, GasLimit: params.GasLimit, Time: 1}
	bc := chain.BlockContextFor(header, params.ChainID)
	mv := NewMVState(parent)
	view := mv.bind(0, 0, header.Number)
	for i, tx := range txs {
		view.begin(tx)
		if _, _, err := chain.ApplyTransaction(view.overlay, tx, bc); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		held := make(map[types.StateKey]bool, len(view.held))
		for _, key := range view.held {
			if held[key] {
				t.Fatalf("tx %d: %s served twice in one execution", i, key)
			}
			held[key] = true
		}
		for key := range view.overlay.Access().Reads {
			if !held[key] {
				t.Fatalf("tx %d: read of %s recorded but never served by the view", i, key)
			}
		}
		if _, _, ok := mv.TryCommit(view.overlay.Access(), view.overlay.ChangeSet()); !ok {
			t.Fatalf("tx %d: serial commit aborted", i)
		}
	}
}
