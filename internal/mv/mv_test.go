package mv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"blockpilot/internal/crypto"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// fakeBase is a fixed base snapshot for engine-level tests.
type fakeBase struct {
	bal      map[types.Address]uint64
	slot     map[slotKey]uint64
	codeHash map[types.Address]types.Hash // EmptyCodeHash where unset
}

func (f *fakeBase) Account(a types.Address) (state.Account, bool) {
	bal, ok := f.bal[a]
	if !ok {
		return state.Account{}, false
	}
	acct := state.Account{CodeHash: state.EmptyCodeHash}
	if h, ok := f.codeHash[a]; ok {
		acct.CodeHash = h
	}
	acct.Balance.SetUint64(bal)
	return acct, true
}
func (f *fakeBase) Code(types.Address) []byte { return nil }
func (f *fakeBase) Storage(a types.Address, s types.Hash) uint256.Int {
	var v uint256.Int
	v.SetUint64(f.slot[slotKey{addr: a, slot: s}])
	return v
}

// balanceOf and nonceOf read one field through a Reader's Account.
func balanceOf(r state.Reader, a types.Address) uint256.Int {
	acct, _ := r.Account(a)
	return acct.Balance
}

func nonceOf(r state.Reader, a types.Address) uint64 {
	acct, _ := r.Account(a)
	return acct.Nonce
}

func addrOf(i int) types.Address {
	var a types.Address
	a[0] = byte(i + 1)
	a[19] = byte(i >> 8)
	return a
}

func hashOf(i int) types.Hash {
	var h types.Hash
	h[0] = byte(i + 1)
	return h
}

// synthOp is one step of a synthetic transaction: bump addr's balance by
// delta, or (slot >= 0) bump a storage slot by delta. Every op reads the
// current value first, so stale reads change the output.
type synthOp struct {
	addr  int
	slot  int // -1 = balance op
	delta uint64
}

// runSynth executes one synthetic transaction against a view, returning its
// change set and the checksum of every value it observed.
func runSynth(ops []synthOp, view state.Reader) (*state.ChangeSet, uint64) {
	var sum uint64
	localBal := map[types.Address]uint64{}
	localSlot := map[slotKey]uint64{}
	for _, op := range ops {
		a := addrOf(op.addr)
		if op.slot < 0 {
			cur, ok := localBal[a]
			if !ok {
				b := balanceOf(view, a)
				cur = b.Uint64()
			}
			sum = sum*31 + cur
			localBal[a] = cur + op.delta
		} else {
			sk := slotKey{addr: a, slot: hashOf(op.slot)}
			cur, ok := localSlot[sk]
			if !ok {
				v := view.Storage(sk.addr, sk.slot)
				cur = v.Uint64()
			}
			sum = sum*31 + cur
			localSlot[sk] = cur + op.delta
			// A slot write also rewrites the owner's scalar entry (like a
			// real change set does), so read the balance too.
			if _, ok := localBal[a]; !ok {
				b := balanceOf(view, a)
				localBal[a] = b.Uint64()
			}
		}
	}
	var accts []state.AccountChange
	owner := map[types.Address]int{}
	for a, b := range localBal {
		ch := state.AccountChange{Addr: a, Nonce: nonceOf(view, a)}
		ch.Balance.SetUint64(b)
		owner[a] = len(accts)
		accts = append(accts, ch)
	}
	for sk, v := range localSlot {
		var val uint256.Int
		val.SetUint64(v)
		ch := &accts[owner[sk.addr]]
		ch.Slots = append(ch.Slots, state.SlotChange{Slot: sk.slot, Val: val})
	}
	return state.NewChangeSet(accts...), sum
}

// serialOracle applies the programs in index order over plain maps,
// returning each tx's observation checksum and the final world state.
func serialOracle(base *fakeBase, progs [][]synthOp) ([]uint64, map[types.Address]uint64, map[slotKey]uint64) {
	bal := map[types.Address]uint64{}
	for a, b := range base.bal {
		bal[a] = b
	}
	slots := map[slotKey]uint64{}
	sums := make([]uint64, len(progs))
	for i, ops := range progs {
		var sum uint64
		localBal := map[types.Address]uint64{}
		localSlot := map[slotKey]uint64{}
		for _, op := range ops {
			a := addrOf(op.addr)
			if op.slot < 0 {
				cur, ok := localBal[a]
				if !ok {
					cur = bal[a]
				}
				sum = sum*31 + cur
				localBal[a] = cur + op.delta
			} else {
				sk := slotKey{addr: a, slot: hashOf(op.slot)}
				cur, ok := localSlot[sk]
				if !ok {
					cur = slots[sk]
				}
				sum = sum*31 + cur
				localSlot[sk] = cur + op.delta
				if _, ok := localBal[a]; !ok {
					localBal[a] = bal[a]
				}
			}
		}
		for a, b := range localBal {
			bal[a] = b
		}
		for sk, v := range localSlot {
			slots[sk] = v
		}
		sums[i] = sum
	}
	return sums, bal, slots
}

// randomPrograms builds n synthetic transactions over a small hot key space
// so the run is conflict-heavy.
func randomPrograms(rng *rand.Rand, n, accounts, hotSlots int) [][]synthOp {
	progs := make([][]synthOp, n)
	for i := range progs {
		steps := 1 + rng.Intn(4)
		ops := make([]synthOp, steps)
		for j := range ops {
			op := synthOp{addr: rng.Intn(accounts), slot: -1, delta: uint64(1 + rng.Intn(9))}
			if rng.Intn(2) == 0 {
				op.slot = rng.Intn(hotSlots)
			}
			ops[j] = op
		}
		progs[i] = ops
	}
	return progs
}

// TestInstanceMatchesSerial drives randomized conflict-heavy workloads
// through the full engine (memory + scheduler + suspension) at several
// thread counts and checks every transaction observed exactly the values a
// serial execution in index order observes, and that the flattened state
// equals the serial post-state. Rounds are split so cross-round reads are
// exercised too.
func TestInstanceMatchesSerial(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("threads=%d/seed=%d", threads, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				base := &fakeBase{bal: map[types.Address]uint64{}, slot: map[slotKey]uint64{}}
				for i := 0; i < 6; i++ {
					base.bal[addrOf(i)] = uint64(1000 * (i + 1))
				}
				n := 40
				progs := randomPrograms(rng, n, 4, 3)
				wantSums, wantBal, wantSlots := serialOracle(base, progs)

				inst := NewInstance(base, func(idx, worker int, view state.Reader) ExecResult {
					cs, sum := runSynth(progs[idx], view)
					return ExecResult{Writes: cs, Data: sum}
				})
				// Two rounds, like the proposer's claim loop.
				half := n / 2
				inst.Run(half, threads)
				inst.Run(n-half, threads)

				for i := 0; i < n; i++ {
					got := inst.Data(i).(uint64)
					if got != wantSums[i] {
						t.Fatalf("tx %d observed checksum %d, serial oracle %d", i, got, wantSums[i])
					}
				}
				flat := inst.Flatten()
				for a, want := range wantBal {
					ch := flat.Account(a)
					var got uint64
					if ch != nil {
						got = ch.Balance.Uint64()
					} else {
						got = base.bal[a]
					}
					if got != want {
						t.Fatalf("final balance of %v: got %d, want %d", a, got, want)
					}
				}
				for sk, want := range wantSlots {
					ch := flat.Account(sk.addr)
					if ch == nil {
						t.Fatalf("flatten lost account %v", sk.addr)
					}
					v, _ := ch.Slot(sk.slot)
					if v.Uint64() != want {
						t.Fatalf("final slot %v: got %d, want %d", sk, v.Uint64(), want)
					}
				}
				st := inst.Stats()
				if st.Executions != int64(n)+st.Reexecutions {
					t.Fatalf("stats inconsistent: %d executions, %d reexecutions, %d txs", st.Executions, st.Reexecutions, n)
				}
			})
		}
	}
}

// TestEstimateSuspension pins the ESTIMATE mechanics: after a validation
// abort converts tx 0's writes, a reader of the key must resolve it as a
// dependency, and after re-recording it must resolve to the new incarnation.
func TestEstimateSuspension(t *testing.T) {
	base := &fakeBase{bal: map[types.Address]uint64{addrOf(0): 100}}
	m := NewMemory(base)
	m.grow(4)
	a := addrOf(0)

	reads := []ReadRecord{{Addr: a, Kind: readScalar, Tx: baseVersion}}
	ch := &state.AccountChange{}
	ch.Balance.SetUint64(150)
	ch.Addr = a
	cs := state.NewChangeSet(*ch)
	if wroteNew := m.Record(0, 0, reads, cs); !wroteNew {
		t.Fatal("first incarnation must report a new path")
	}

	e, _, ok := m.store.ResolveAccount(a, uint64(2))
	if !ok || e.Estimate || e.Val.Balance.Uint64() != 150 {
		t.Fatalf("resolution before abort: ok=%v est=%v bal=%d", ok, e.Estimate, e.Val.Balance.Uint64())
	}

	m.ConvertToEstimates(0)
	e, _, ok = m.store.ResolveAccount(a, uint64(2))
	if !ok || !e.Estimate || int(e.Key) != 0 {
		t.Fatalf("resolution after abort must be an ESTIMATE on tx 0: ok=%v est=%v tx=%d", ok, e.Estimate, int(e.Key))
	}
	// A view read must suspend with the blocking index.
	func() {
		defer func() {
			r := recover()
			d, isDep := r.(depError)
			if !isDep || d.blocking != 0 {
				t.Fatalf("expected depError{0}, got %v", r)
			}
		}()
		balanceOf(newView(m, 2), a)
		t.Fatal("read of an ESTIMATE must suspend")
	}()

	// Re-execution with a different write set: the old value is replaced,
	// wroteNew is false (same path), and readers see the new incarnation.
	ch2 := &state.AccountChange{}
	ch2.Balance.SetUint64(175)
	ch2.Addr = a
	cs2 := state.NewChangeSet(*ch2)
	if wroteNew := m.Record(0, 1, reads, cs2); wroteNew {
		t.Fatal("same-path re-execution must not report a new path")
	}
	e, _, ok = m.store.ResolveAccount(a, uint64(2))
	if !ok || e.Estimate || e.Inc != 1 || e.Val.Balance.Uint64() != 175 {
		t.Fatalf("resolution after re-record: ok=%v est=%v inc=%d bal=%d", ok, e.Estimate, e.Inc, e.Val.Balance.Uint64())
	}
}

// TestValidateReadSet covers the three validation outcomes: unchanged
// resolution passes, a new lower write fails, an ESTIMATE fails.
func TestValidateReadSet(t *testing.T) {
	base := &fakeBase{bal: map[types.Address]uint64{addrOf(0): 100}}
	m := NewMemory(base)
	m.grow(4)
	a := addrOf(0)

	// Tx 2 read the base.
	m.Record(2, 0, []ReadRecord{{Addr: a, Kind: readScalar, Tx: baseVersion}}, nil)
	if _, ok := m.ValidateReadSet(2); !ok {
		t.Fatal("base read with no lower writes must validate")
	}

	// Tx 1 lands a write below it: the base read is now stale.
	ch := &state.AccountChange{}
	ch.Balance.SetUint64(7)
	ch.Addr = a
	cs := state.NewChangeSet(*ch)
	m.Record(1, 0, nil, cs)
	if _, ok := m.ValidateReadSet(2); ok {
		t.Fatal("base read must fail once tx 1 wrote the key")
	}

	// Tx 2 re-reads tx 1's value: validates — until tx 1 aborts.
	m.Record(2, 1, []ReadRecord{{Addr: a, Kind: readScalar, Tx: 1, Inc: 0}}, nil)
	if _, ok := m.ValidateReadSet(2); !ok {
		t.Fatal("read of tx 1's current incarnation must validate")
	}
	m.ConvertToEstimates(1)
	if _, ok := m.ValidateReadSet(2); ok {
		t.Fatal("read of an ESTIMATE must fail validation")
	}
}

// TestPurge checks a cut transaction's entries disappear and lower indices
// are untouched.
func TestPurge(t *testing.T) {
	base := &fakeBase{bal: map[types.Address]uint64{}}
	m := NewMemory(base)
	m.grow(4)
	a := addrOf(0)
	for tx := 0; tx < 3; tx++ {
		ch := &state.AccountChange{}
		ch.Balance.SetUint64(uint64(10 + tx))
		var sv uint256.Int
		sv.SetUint64(uint64(100 + tx))
		ch.Slots = append(ch.Slots, state.SlotChange{Slot: hashOf(0), Val: sv})
		ch.Addr = a
		cs := state.NewChangeSet(*ch)
		m.Record(tx, 0, nil, cs)
	}
	m.Purge(2)
	m.Purge(1)
	e, _, ok := m.store.ResolveAccount(a, uint64(3))
	if !ok || int(e.Key) != 0 || e.Val.Balance.Uint64() != 10 {
		t.Fatalf("after purging 2,1 the newest entry must be tx 0: ok=%v tx=%d bal=%d", ok, int(e.Key), e.Val.Balance.Uint64())
	}
	s, ok := m.store.ResolveSlot(a, hashOf(0), uint64(3))
	if !ok || s.Key != 0 || s.Val.Uint64() != 100 {
		t.Fatalf("purge left slot state: ok=%v tx=%d val=%d", ok, s.Key, s.Val.Uint64())
	}
	flat := m.Flatten()
	if got := flat.Account(a).Balance.Uint64(); got != 10 {
		t.Fatalf("flatten after purge: balance %d, want 10", got)
	}
}

// TestCodePathIndependence checks that balance-only writes neither block
// nor invalidate code reads of the same account, while a deploy does.
func TestCodePathIndependence(t *testing.T) {
	base := &fakeBase{bal: map[types.Address]uint64{addrOf(0): 5}}
	m := NewMemory(base)
	m.grow(8)
	a := addrOf(0)

	// Tx 1 writes only the balance, then aborts (ESTIMATE).
	ch := &state.AccountChange{}
	ch.Balance.SetUint64(6)
	ch.Addr = a
	cs := state.NewChangeSet(*ch)
	m.Record(1, 0, nil, cs)
	m.ConvertToEstimates(1)

	// A code read above it resolves from the base, not the estimate.
	if _, ok := m.store.ResolveCode(a, uint64(3)); ok {
		t.Fatal("balance-only estimate must not shadow the code path")
	}
	m.Record(3, 0, []ReadRecord{{Addr: a, Kind: readCode, Tx: baseVersion}}, nil)
	if _, ok := m.ValidateReadSet(3); !ok {
		t.Fatal("code read must stay valid across a balance-only estimate")
	}

	// A deploy below it invalidates the code read, and the new-path report
	// is what forces the revalidation sweep.
	ch2 := &state.AccountChange{Code: []byte{0x60}, CodeSet: true}
	ch2.Balance.SetUint64(6)
	ch2.Addr = a
	cs2 := state.NewChangeSet(*ch2)
	if wroteNew := m.Record(2, 0, nil, cs2); !wroteNew {
		t.Fatal("a deploy is a new path")
	}
	if _, ok := m.ValidateReadSet(3); ok {
		t.Fatal("code read must fail once tx 2 deployed")
	}
}

// TestViewCodeMatchesHashAcrossReRecord re-records lower transactions between
// a view's Account and its Code (and the other way round): the code hash the
// one reported must be the hash of what the other returns — the EVM files its
// code analysis under that hash — and the incarnation's read set must then
// fail validation, so the torn-looking world is never committed.
func TestViewCodeMatchesHashAcrossReRecord(t *testing.T) {
	x := addrOf(0)
	codeA, codeA2 := []byte{0x60, 0x01, 0x00}, []byte{0x5b, 0x5b, 0x60, 0x02, 0x56}
	deploy := func(code []byte) *state.ChangeSet {
		return state.NewChangeSet(state.AccountChange{Addr: x, Nonce: 1, Code: code, CodeSet: code != nil})
	}
	cases := []struct {
		name     string
		before   func(m *Memory) // the world the first call sees
		between  func(m *Memory) // what lower transactions re-record before the second
		wantCode []byte
	}{
		{"deploy moves to a lower tx with other code",
			func(m *Memory) { m.Record(3, 0, nil, deploy(codeA)) },
			func(m *Memory) { m.Record(3, 1, nil, state.NewChangeSet()); m.Record(2, 0, nil, deploy(codeA2)) },
			codeA},
		{"deploy re-recorded with other code",
			func(m *Memory) { m.Record(3, 0, nil, deploy(codeA)) },
			func(m *Memory) { m.Record(3, 1, nil, deploy(codeA2)) },
			codeA},
		{"deploy re-recorded as a plain write",
			func(m *Memory) { m.Record(3, 0, nil, deploy(codeA)) },
			func(m *Memory) { m.Record(3, 1, nil, deploy(nil)) },
			codeA},
		{"deploy removed",
			func(m *Memory) { m.Record(2, 0, nil, deploy(nil)); m.Record(3, 0, nil, deploy(codeA)) },
			func(m *Memory) { m.Record(3, 1, nil, state.NewChangeSet()) },
			codeA},
		{"deploy lands above a plain write",
			func(m *Memory) { m.Record(2, 0, nil, deploy(nil)) },
			func(m *Memory) { m.Record(3, 0, nil, deploy(codeA)) },
			nil},
		{"deploy lands over the base",
			func(m *Memory) {},
			func(m *Memory) { m.Record(3, 0, nil, deploy(codeA)) },
			nil},
	}
	for _, tc := range cases {
		for _, codeFirst := range []bool{false, true} {
			m := NewMemory(&fakeBase{bal: map[types.Address]uint64{x: 5}})
			m.grow(8)
			tc.before(m)
			v := newView(m, 5)
			var acct state.Account
			var code []byte
			if codeFirst {
				code = v.Code(x)
				tc.between(m)
				acct, _ = v.Account(x)
			} else {
				acct, _ = v.Account(x)
				tc.between(m)
				code = v.Code(x)
			}
			if !bytes.Equal(code, tc.wantCode) {
				t.Errorf("%s (code first %v): code %x, want the first call's world %x", tc.name, codeFirst, code, tc.wantCode)
			}
			if got := types.Hash(crypto.Sum256(code)); got != acct.CodeHash {
				t.Errorf("%s (code first %v): Account says code hash %x, Code returns code hashing to %x", tc.name, codeFirst, acct.CodeHash[:], got[:])
			}
			if len(v.recs) != 2 {
				t.Fatalf("%s: %d read records, want one per path", tc.name, len(v.recs))
			}
			m.Record(5, 0, v.recs, nil)
			if _, ok := m.ValidateReadSet(5); ok {
				t.Errorf("%s (code first %v): reads %+v still validate after the re-record", tc.name, codeFirst, v.recs)
			}
		}
	}
}

// TestStaleReadsFault checks the mutation-check fault injection: reads skip
// the chains and validation passes vacuously.
func TestStaleReadsFault(t *testing.T) {
	base := &fakeBase{bal: map[types.Address]uint64{addrOf(0): 100}}
	m := NewMemory(base)
	m.grow(4)
	m.stale = true
	a := addrOf(0)
	ch := &state.AccountChange{}
	ch.Balance.SetUint64(999)
	ch.Addr = a
	cs := state.NewChangeSet(*ch)
	m.Record(0, 0, nil, cs)
	if got := balanceOf(newView(m, 2), a); got.Uint64() != 100 {
		t.Fatalf("stale view must read the base: got %d", got.Uint64())
	}
	m.Record(2, 0, []ReadRecord{{Addr: a, Kind: readScalar, Tx: baseVersion}}, nil)
	if _, ok := m.ValidateReadSet(2); !ok {
		t.Fatal("stale-mode validation must pass vacuously")
	}
}

// TestSpeculationWindow pins the bounded-speculation machinery: the
// window starts fully open, a validation conflict slams it to zero, a
// streak of windowProbeStreak clean validations reopens it one index at a
// time, and the execution gate stops handing out indices above
// frontier+window while always admitting the frontier itself (so a
// collapsed window degrades to serial index order, not deadlock).
func TestSpeculationWindow(t *testing.T) {
	s := NewScheduler(0, 64)
	if got := s.window.Load(); got != 64 {
		t.Fatalf("initial window = %d, want 64 (fully speculative)", got)
	}

	// Claim and finish tx 0 so a conflict on it is attributable.
	task, ok := s.NextTask()
	if !ok || task.Kind != TaskExecute || task.Idx != 0 {
		t.Fatalf("first task = %+v ok=%v, want execute idx 0", task, ok)
	}
	if _, ok := s.FinishExecution(0, 0, false); ok {
		t.Fatalf("unexpected follow-up validation task with cursor at 0")
	}

	// One conflict collapses speculation entirely.
	if !s.TryValidationAbort(0, 0) {
		t.Fatalf("validation abort not accepted")
	}
	if got := s.window.Load(); got != 0 {
		t.Fatalf("window after conflict = %d, want 0", got)
	}

	// Retire the aborted incarnation: the finished validation hands back
	// the re-execution directly.
	task, ok = s.FinishValidation(0, true)
	if !ok || task.Kind != TaskExecute || task.Idx != 0 {
		t.Fatalf("re-execution of 0 not dispatched: %+v ok=%v", task, ok)
	}
	s.FinishExecution(0, 1, false)

	// Gate check: with window 0 and the frontier at 1 (tx 0 executed),
	// only index 1 may start; index 2 is gated while 1 is in flight.
	task, ok = s.NextTask()
	for ok && task.Kind == TaskValidate { // drain the pending revalidation
		task, ok = s.FinishValidation(task.Idx, false)
		if !ok {
			task, ok = s.NextTask()
		}
	}
	if !ok || task.Kind != TaskExecute || task.Idx != 1 {
		t.Fatalf("frontier task = %+v ok=%v, want execute idx 1", task, ok)
	}
	if task, ok := s.NextTask(); ok {
		t.Fatalf("gate handed out %+v with window 0 and frontier busy", task)
	}

	// Recovery: windowProbeStreak clean validations reopen one index;
	// conflicts reset the streak; the window caps at the round size.
	s.streak.Store(0) // the drain above already banked one clean validation
	for i := 0; i < windowProbeStreak-1; i++ {
		s.onValidationPass()
	}
	if got := s.window.Load(); got != 0 {
		t.Fatalf("window before full streak = %d, want 0", got)
	}
	s.onValidationPass()
	if got := s.window.Load(); got != 1 {
		t.Fatalf("window after %d clean validations = %d, want 1", windowProbeStreak, got)
	}
	s.onValidationFail()
	if got := s.window.Load(); got != 0 {
		t.Fatalf("window after renewed conflict = %d, want 0", got)
	}
	for i := 0; i < 200*windowProbeStreak; i++ {
		s.onValidationPass()
	}
	if got := s.window.Load(); got != 64 {
		t.Fatalf("window cap = %d, want 64", got)
	}

	// Cross-round carry clamps to the round size.
	s2 := NewScheduler(64, 80)
	s2.SetWindow(999)
	if got := s2.Window(); got != 16 {
		t.Fatalf("carried window = %d, want clamp to 16", got)
	}
	s2.SetWindow(0)
	if got := s2.Window(); got != 0 {
		t.Fatalf("carried window = %d, want 0", got)
	}
}
