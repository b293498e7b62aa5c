package state_test

import (
	"math/rand"
	"slices"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/crypto"
	"blockpilot/internal/evm"
	"blockpilot/internal/evm/asm"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// The lookup budget (DESIGN.md, "The Reader contract"): per (overlay,
// account) at most one Account call on the base and at most one Code call,
// the latter only for accounts whose hash says they carry code. `make
// state-budget` runs these in tier-1 so a fourth lookup shows up without the
// benchmark.

var (
	budgetAlice    = types.HexToAddress("0xa11ce")
	budgetBob      = types.HexToAddress("0xb0b")
	budgetCarol    = types.HexToAddress("0xca401")
	budgetContract = types.HexToAddress("0xc0de")
)

// countingReader counts the calls that reach a Reader.
type countingReader struct {
	state.Reader
	accounts, codes, slots int
}

func (c *countingReader) Account(a types.Address) (state.Account, bool) {
	c.accounts++
	return c.Reader.Account(a)
}

func (c *countingReader) Code(a types.Address) []byte {
	c.codes++
	return c.Reader.Code(a)
}

func (c *countingReader) Storage(a types.Address, s types.Hash) uint256.Int {
	c.slots++
	return c.Reader.Storage(a, s)
}

func (c *countingReader) expect(t *testing.T, what string, accounts, codes, slots int) {
	t.Helper()
	if c.accounts != accounts || c.codes != codes || c.slots != slots {
		t.Fatalf("%s: base saw %d Account / %d Code / %d Storage calls, budget %d / %d / %d",
			what, c.accounts, c.codes, c.slots, accounts, codes, slots)
	}
}

// budgetGenesis holds three EOAs and a contract that bumps its slot 0 and
// reads carol's balance: a call into it touches sender, contract and carol.
func budgetGenesis() *state.Snapshot {
	code := asm.MustAssemble(`
		PUSH1 0
		SLOAD
		PUSH1 1
		ADD
		PUSH1 0
		SSTORE
		PUSH20 ` + budgetCarol.String() + `
		BALANCE
		POP
		STOP`)
	return state.NewGenesisBuilder().
		AddAccount(budgetAlice, uint256.NewInt(10_000_000)).
		AddAccount(budgetBob, uint256.NewInt(1_000_000)).
		AddAccount(budgetCarol, uint256.NewInt(5)).
		AddContract(budgetContract, uint256.NewInt(0), code, map[types.Hash]uint256.Int{{}: *uint256.NewInt(7)}).
		Build()
}

func budgetTx(nonce uint64, to types.Address, value uint64) *types.Transaction {
	tx := &types.Transaction{Nonce: nonce, Gas: 100_000, From: budgetAlice, To: to}
	tx.GasPrice.SetUint64(1)
	tx.Value.SetUint64(value)
	return tx
}

func apply(t *testing.T, o *state.Overlay, tx *types.Transaction) {
	t.Helper()
	r, _, err := chain.ApplyTransaction(o, tx, evm.BlockContext{GasLimit: 1e7})
	if err != nil || r.Status != 1 {
		t.Fatalf("apply: %v, receipt %+v", err, r)
	}
}

func TestOverlayReadsEachAccountOnce(t *testing.T) {
	// stack builds the Reader an overlay sits on, over the counting base.
	for name, stack := range map[string]func(state.Reader) state.Reader{
		"overlay":        func(base state.Reader) state.Reader { return base },
		"overlay/memory": func(base state.Reader) state.Reader { return state.NewMemory(base) },
	} {
		t.Run(name+"/transfer", func(t *testing.T) {
			base := &countingReader{Reader: budgetGenesis()}
			o := state.NewOverlay(stack(base), 0)
			apply(t, o, budgetTx(0, budgetBob, 1000))
			base.expect(t, "EOA → EOA transfer", 2, 0, 0)
			apply(t, o, budgetTx(1, budgetBob, 1000))
			o.GetCodeHash(budgetBob)
			o.GetCodeSize(budgetAlice)
			base.expect(t, "second touch of both", 2, 0, 0)
		})
		t.Run(name+"/call", func(t *testing.T) {
			base := &countingReader{Reader: budgetGenesis()}
			o := state.NewOverlay(stack(base), 0)
			apply(t, o, budgetTx(0, budgetContract, 0))
			base.expect(t, "call touching sender, contract and carol", 3, 1, 1)
			apply(t, o, budgetTx(1, budgetContract, 0))
			base.expect(t, "second call", 3, 1, 1)
			if v := o.GetState(budgetContract, types.Hash{}); v.Uint64() != 9 {
				t.Fatalf("slot 0 = %d after two bumps of 7", v.Uint64())
			}
		})
	}

	// An account the block already wrote: the Memory entry answers nonce and
	// balance, the base one Account call for the code hash — and the overlay
	// still asks once.
	base := &countingReader{Reader: budgetGenesis()}
	accum := state.NewMemory(base)
	first := state.NewOverlay(accum, 0)
	apply(t, first, budgetTx(0, budgetBob, 1000))
	accum.ApplyChangeSet(first.ChangeSet())
	base.accounts = 0
	apply(t, state.NewOverlay(accum, 1), budgetTx(1, budgetBob, 1000))
	base.expect(t, "second transfer over the accumulated block", 2, 0, 0)
}

// memoryRef is state.Memory as it was when ApplyChangeSet went through
// ensure — Exists + Nonce + Balance against the base for every account it
// then overwrote — kept as the reference the direct install must equal.
type memoryRef struct {
	base     *state.Snapshot
	accounts map[types.Address]*memAccountRef
}

type memAccountRef struct {
	nonce    uint64
	balance  uint256.Int
	code     []byte
	codeHash types.Hash
	hasCode  bool
	storage  map[types.Hash]uint256.Int
	exists   bool
}

func (m *memoryRef) ensure(addr types.Address) *memAccountRef {
	if a, ok := m.accounts[addr]; ok {
		return a
	}
	a := &memAccountRef{storage: make(map[types.Hash]uint256.Int)}
	if m.base.Exists(addr) {
		a.nonce = m.base.Nonce(addr)
		a.balance = m.base.Balance(addr)
		a.exists = true
	}
	m.accounts[addr] = a
	return a
}

func (m *memoryRef) applyChangeSet(cs *state.ChangeSet) {
	for _, ch := range cs.Accounts {
		a := m.ensure(ch.Addr)
		a.nonce = ch.Nonce
		a.balance = ch.Balance
		a.exists = true
		if ch.CodeSet {
			a.code = ch.Code
			a.codeHash = types.Hash(crypto.Sum256(ch.Code))
			a.hasCode = true
		}
		for _, s := range ch.Slots {
			a.storage[s.Slot] = s.Val
		}
	}
}

// account is the old Exists / Nonce / Balance / CodeHash quartet as one
// answer, with the normalisation Overlay.loadCode applied on top of it: an
// account that exists without any code hash known below has EmptyCodeHash.
func (m *memoryRef) account(addr types.Address) (state.Account, bool) {
	a, ok := m.accounts[addr]
	if !ok {
		return m.base.Account(addr)
	}
	if !a.exists {
		return state.Account{}, false
	}
	acct := state.Account{Nonce: a.nonce, Balance: a.balance, CodeHash: m.base.CodeHash(addr)}
	if a.hasCode {
		acct.CodeHash = a.codeHash
	}
	if acct.CodeHash == (types.Hash{}) {
		acct.CodeHash = state.EmptyCodeHash
	}
	return acct, true
}

func (m *memoryRef) code(addr types.Address) []byte {
	if a, ok := m.accounts[addr]; ok && a.hasCode {
		return a.code
	}
	return m.base.Code(addr)
}

func (m *memoryRef) slot(addr types.Address, slot types.Hash) uint256.Int {
	if a, ok := m.accounts[addr]; ok {
		if v, ok := a.storage[slot]; ok {
			return v
		}
	}
	return m.base.Storage(addr, slot)
}

func TestApplyChangeSetReadsNothing(t *testing.T) {
	const addrs, slots = 12, 4 // the first 8 addresses are in the base, 2 of them contracts
	addr := func(i int) types.Address { return types.BytesToAddress([]byte{0xAA, byte(i)}) }
	slot := func(i int) types.Hash { return types.Hash{31: byte(i + 1)} }
	g := state.NewGenesisBuilder()
	for i := 0; i < 8; i++ {
		if i < 2 {
			g.AddContract(addr(i), uint256.NewInt(uint64(i)), []byte{0xfe, byte(i)},
				map[types.Hash]uint256.Int{slot(0): *uint256.NewInt(11), slot(1): *uint256.NewInt(22)})
		} else {
			g.AddAccount(addr(i), uint256.NewInt(uint64(100*i)))
		}
	}
	genesis := g.Build()

	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 50; round++ {
		base := &countingReader{Reader: genesis}
		m := state.NewMemory(base)
		ref := &memoryRef{base: genesis, accounts: map[types.Address]*memAccountRef{}}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			var accts []state.AccountChange
			for k := 1 + rng.Intn(5); k > 0; k-- {
				ch := state.AccountChange{Nonce: uint64(rng.Intn(9)), Balance: *uint256.NewInt(uint64(rng.Intn(1000)))}
				if rng.Intn(4) == 0 {
					ch.Code, ch.CodeSet = []byte{0x60, byte(rng.Intn(3))}, true
				}
				for s := rng.Intn(3); s > 0; s-- {
					ch.Slots = append(ch.Slots, state.SlotChange{Slot: slot(rng.Intn(slots)), Val: *uint256.NewInt(uint64(rng.Intn(3)))}) // zeroes included
				}
				ch.Addr = addr(rng.Intn(addrs))
				if i := slices.IndexFunc(accts, func(c state.AccountChange) bool { return c.Addr == ch.Addr }); i >= 0 {
					accts[i] = ch // a later write of the account replaces the earlier one
				} else {
					accts = append(accts, ch)
				}
			}
			cs := state.NewChangeSet(accts...)
			m.ApplyChangeSet(cs)
			ref.applyChangeSet(cs)
		}
		base.expect(t, "ApplyChangeSet", 0, 0, 0)

		for i := 0; i < addrs; i++ {
			got, ok := m.Account(addr(i))
			want, wantOK := ref.account(addr(i))
			if got != want || ok != wantOK {
				t.Fatalf("round %d account %d: %+v/%v, reference %+v/%v", round, i, got, ok, want, wantOK)
			}
			if g, w := m.Code(addr(i)), ref.code(addr(i)); string(g) != string(w) {
				t.Fatalf("round %d code %d: %x, reference %x", round, i, g, w)
			}
			for s := 0; s < slots; s++ {
				if g, w := m.Storage(addr(i), slot(s)), ref.slot(addr(i), slot(s)); g != w {
					t.Fatalf("round %d slot %d/%d: %s, reference %s", round, i, s, g.String(), w.String())
				}
			}
		}
	}
}
