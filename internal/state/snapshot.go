package state

import (
	"sync"
	"sync/atomic"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Snapshot is a committed world state at a block boundary. It is immutable:
// Commit returns a new Snapshot sharing all unchanged trie nodes with the
// old one, so holding many historical snapshots (as the validator pipeline
// does for in-flight blocks) is cheap.
//
// Layout follows Ethereum: an accounts trie keyed by keccak(address) whose
// leaves are rlp([nonce, balance, storageRoot, codeHash]), one storage trie
// per contract keyed by keccak(slot) with rlp(value) leaves, and a
// codeHash → code store.
type Snapshot struct {
	accounts *trie.Trie
	storage  map[types.Address]*trie.Trie
	codes    map[types.Hash][]byte
	// keys memoizes keccak(addr)/keccak(slot) trie keys. It is shared (by
	// pointer) with every snapshot derived from this one: the mapping is
	// pure, so sharing is always safe and turns repeated per-lookup and
	// per-commit hashing into a single computation per key.
	keys *keyCache

	// Disk backend (nil = the in-memory backend). When set, commits persist
	// through db (storage tries resolved lazily via each account's
	// storageRoot, code via content-addressed db records — the storage and
	// codes maps above stay empty), and flat is the O(1) read acceleration
	// stack over recent commits (see flat.go, disk.go).
	db   *trie.Database
	flat *flatLayer
}

// NewSnapshot returns an empty world state.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		accounts: trie.New(),
		storage:  make(map[types.Address]*trie.Trie),
		codes:    make(map[types.Hash][]byte),
		keys:     newKeyCache(),
	}
}

// encodeAccount serializes an account leaf.
func encodeAccount(nonce uint64, balance *uint256.Int, storageRoot, codeHash types.Hash) []byte {
	return rlp.EncodeList(
		rlp.EncodeUint(nonce),
		rlp.EncodeString(balance.Bytes()),
		rlp.EncodeString(storageRoot.Bytes()),
		rlp.EncodeString(codeHash.Bytes()),
	)
}

// decodedAccount is the parsed form of an account leaf.
type decodedAccount struct {
	nonce       uint64
	balance     uint256.Int
	storageRoot types.Hash
	codeHash    types.Hash
}

func decodeAccount(b []byte) (decodedAccount, bool) {
	var a decodedAccount
	content, _, err := rlp.SplitList(b)
	if err != nil {
		return a, false
	}
	if a.nonce, content, err = rlp.SplitUint(content); err != nil {
		return a, false
	}
	var s []byte
	if s, content, err = rlp.SplitString(content); err != nil {
		return a, false
	}
	a.balance.SetBytes(s)
	if s, content, err = rlp.SplitString(content); err != nil {
		return a, false
	}
	a.storageRoot = types.BytesToHash(s)
	if s, _, err = rlp.SplitString(content); err != nil {
		return a, false
	}
	a.codeHash = types.BytesToHash(s)
	return a, true
}

// hashedAddr returns the accounts-trie key for addr, memoized in the
// snapshot's key cache.
func (s *Snapshot) hashedAddr(addr types.Address) []byte {
	if s.keys == nil { // zero-value safety for hand-rolled snapshots
		return crypto.Keccak256(addr.Bytes())
	}
	return s.keys.HashedAddr(addr)
}

// hashedSlot returns the storage-trie key for slot, memoized.
func (s *Snapshot) hashedSlot(slot types.Hash) []byte {
	if s.keys == nil {
		return crypto.Keccak256(slot.Bytes())
	}
	return s.keys.HashedSlot(slot)
}

// lookup fetches and decodes an account leaf; ok is false for absents. On
// the disk backend the flat layers answer first (O(1)), then the trie.
func (s *Snapshot) lookup(addr types.Address) (decodedAccount, bool) {
	if s.db != nil {
		s.db.CountLogicalRead()
		return s.accountDisk(addr, nil, true)
	}
	return s.lookupHashed(s.hashedAddr(addr))
}

// lookupHashed is lookup with the trie key already computed — the commit
// path hoists the hash so it is computed once per account instead of once
// for the lookup and again for the trailing accounts.Update.
func (s *Snapshot) lookupHashed(hashedAddr []byte) (decodedAccount, bool) {
	leaf := s.accounts.Get(hashedAddr)
	if leaf == nil {
		return decodedAccount{}, false
	}
	return decodeAccount(leaf)
}

// Nonce implements Reader.
func (s *Snapshot) Nonce(addr types.Address) uint64 {
	a, _ := s.lookup(addr)
	return a.nonce
}

// Balance implements Reader.
func (s *Snapshot) Balance(addr types.Address) uint256.Int {
	a, _ := s.lookup(addr)
	return a.balance
}

// Code implements Reader.
func (s *Snapshot) Code(addr types.Address) []byte {
	a, ok := s.lookup(addr)
	if !ok || a.codeHash == EmptyCodeHash || a.codeHash == (types.Hash{}) {
		return nil
	}
	if s.db != nil {
		code, _ := s.db.Code([32]byte(a.codeHash))
		return code
	}
	return s.codes[a.codeHash]
}

// CodeHash implements Reader.
func (s *Snapshot) CodeHash(addr types.Address) types.Hash {
	a, ok := s.lookup(addr)
	if !ok {
		return types.Hash{}
	}
	if a.codeHash == (types.Hash{}) {
		return EmptyCodeHash
	}
	return a.codeHash
}

// Storage implements Reader.
func (s *Snapshot) Storage(addr types.Address, slot types.Hash) uint256.Int {
	if s.db != nil {
		return s.storageDisk(addr, slot)
	}
	var v uint256.Int
	st, ok := s.storage[addr]
	if !ok {
		return v
	}
	leaf := st.Get(s.hashedSlot(slot))
	if leaf == nil {
		return v
	}
	content, _, err := rlp.SplitString(leaf)
	if err != nil {
		return v
	}
	v.SetBytes(content)
	return v
}

// Exists implements Reader.
func (s *Snapshot) Exists(addr types.Address) bool {
	_, ok := s.lookup(addr)
	return ok
}

// Root returns the world-state root hash committed in block headers.
func (s *Snapshot) Root() types.Hash {
	return types.Hash(s.accounts.Hash())
}

// Copy returns an independent snapshot sharing all structure (O(#contracts)
// in memory, O(1) on the disk backend — its maps are empty by design).
func (s *Snapshot) Copy() *Snapshot {
	if s.db != nil {
		return &Snapshot{
			accounts: s.accounts.Copy(),
			storage:  s.storage,
			codes:    s.codes,
			keys:     s.keys,
			db:       s.db,
			flat:     s.flat,
		}
	}
	ns := &Snapshot{
		accounts: s.accounts.Copy(),
		storage:  make(map[types.Address]*trie.Trie, len(s.storage)),
		codes:    make(map[types.Hash][]byte, len(s.codes)),
		keys:     s.keys,
	}
	for a, t := range s.storage {
		ns.storage[a] = t // tries are persistent; Commit replaces, never mutates
	}
	for h, c := range s.codes {
		ns.codes[h] = c
	}
	return ns
}

// Commit applies a change set and returns the resulting snapshot. The
// receiver is unchanged. This is the serial reference path; CommitParallel
// must produce a bit-identical snapshot.
func (s *Snapshot) Commit(cs *ChangeSet) *Snapshot {
	if s.db != nil {
		return s.commitDisk(cs)
	}
	ns := &Snapshot{
		accounts: s.accounts.Copy(),
		storage:  s.storage,
		codes:    s.codes,
		keys:     s.keys,
	}
	storageCopied, codesCopied := false, false

	for addr, ch := range cs.Accounts {
		// One keccak(addr) per account, shared by the lookup and the
		// trailing accounts.Update (it used to be computed twice).
		hashedAddr := s.hashedAddr(addr)
		old, existed := s.lookupHashed(hashedAddr)
		acct := old
		acct.nonce = ch.Nonce
		acct.balance = ch.Balance
		if !existed {
			acct.codeHash = EmptyCodeHash
			acct.storageRoot = types.Hash(trie.EmptyRoot)
		}
		if ch.CodeSet {
			h := types.Hash(crypto.Sum256(ch.Code))
			acct.codeHash = h
			if !codesCopied {
				codes := make(map[types.Hash][]byte, len(ns.codes)+1)
				for k, v := range ns.codes {
					codes[k] = v
				}
				ns.codes = codes
				codesCopied = true
			}
			ns.codes[h] = ch.Code
		}
		if len(ch.Storage) > 0 {
			if !storageCopied {
				storage := make(map[types.Address]*trie.Trie, len(ns.storage)+1)
				for k, v := range ns.storage {
					storage[k] = v
				}
				ns.storage = storage
				storageCopied = true
			}
			st := ns.storage[addr]
			if st == nil {
				st = trie.New()
			} else {
				st = st.Copy()
			}
			ns.storage[addr] = s.applyStorage(st, ch.Storage)
			acct.storageRoot = types.Hash(ns.storage[addr].Hash())
		}
		ns.accounts.Update(hashedAddr,
			encodeAccount(acct.nonce, &acct.balance, acct.storageRoot, acct.codeHash))
	}
	return ns
}

// applyStorage batch-applies one account's dirty slots to its (already
// copied, privately owned) storage trie. Zeroed slots become deletes —
// trie.Batch treats empty values as deletions, matching Ethereum state
// semantics.
func (s *Snapshot) applyStorage(st *trie.Trie, slots map[types.Hash]uint256.Int) *trie.Trie {
	keys := make([][]byte, 0, len(slots))
	vals := make([][]byte, 0, len(slots))
	for slot, val := range slots {
		keys = append(keys, s.hashedSlot(slot))
		if val.IsZero() {
			vals = append(vals, nil)
		} else {
			vals = append(vals, rlp.EncodeString(val.Bytes()))
		}
	}
	st.Batch(keys, vals)
	return st
}

// minParallelCommitAccounts is the change-set size below which goroutine
// fan-out costs more than the trie work it parallelizes.
const minParallelCommitAccounts = 4

// CommitParallel is Commit with the per-account work — parent lookup,
// storage-trie update, storage-root hashing, account-leaf encoding — fanned
// across `workers` goroutines. Accounts are independent by construction
// (one storage trie each, disjoint leaves in the accounts trie), so the
// only serial remainder is the map bookkeeping and a single batch insert
// into the accounts trie. The resulting snapshot is bit-identical to
// Commit(cs): same tries, same roots (parity suite in commit_test.go).
//
// workers <= 1 (the ablation) or a small change set falls back to Commit.
func (s *Snapshot) CommitParallel(cs *ChangeSet, workers int) *Snapshot {
	if s.db != nil {
		return s.commitParallelDisk(cs, workers)
	}
	n := len(cs.Accounts)
	if workers <= 1 || n < minParallelCommitAccounts {
		return s.Commit(cs)
	}
	if workers > n {
		workers = n
	}

	type job struct {
		addr types.Address
		ch   *AccountChange
	}
	type result struct {
		hashedAddr []byte
		leaf       []byte
		storage    *trie.Trie // nil when the account has no dirty slots
		codeHash   types.Hash
		code       []byte
		codeSet    bool
	}
	jobs := make([]job, 0, n)
	for addr, ch := range cs.Accounts {
		jobs = append(jobs, job{addr: addr, ch: ch})
	}
	results := make([]result, n)

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				addr, ch := jobs[i].addr, jobs[i].ch
				hashedAddr := s.hashedAddr(addr)
				old, existed := s.lookupHashed(hashedAddr)
				acct := old
				acct.nonce = ch.Nonce
				acct.balance = ch.Balance
				if !existed {
					acct.codeHash = EmptyCodeHash
					acct.storageRoot = types.Hash(trie.EmptyRoot)
				}
				r := &results[i]
				if ch.CodeSet {
					h := types.Hash(crypto.Sum256(ch.Code))
					acct.codeHash = h
					r.codeHash, r.code, r.codeSet = h, ch.Code, true
				}
				if len(ch.Storage) > 0 {
					st := s.storage[addr] // reads of the immutable parent are safe
					if st == nil {
						st = trie.New()
					} else {
						st = st.Copy()
					}
					r.storage = s.applyStorage(st, ch.Storage)
					acct.storageRoot = types.Hash(r.storage.Hash())
				}
				r.hashedAddr = hashedAddr
				r.leaf = encodeAccount(acct.nonce, &acct.balance, acct.storageRoot, acct.codeHash)
			}
		}()
	}
	wg.Wait()

	// Serial tail: assemble the maps and batch the account leaves into the
	// accounts trie (sorted bottom-up build, one pass).
	ns := &Snapshot{
		accounts: s.accounts.Copy(),
		storage:  s.storage,
		codes:    s.codes,
		keys:     s.keys,
	}
	storageCopied, codesCopied := false, false
	keys := make([][]byte, n)
	leaves := make([][]byte, n)
	for i := range results {
		r := &results[i]
		keys[i] = r.hashedAddr
		leaves[i] = r.leaf
		if r.codeSet {
			if !codesCopied {
				codes := make(map[types.Hash][]byte, len(ns.codes)+1)
				for k, v := range ns.codes {
					codes[k] = v
				}
				ns.codes = codes
				codesCopied = true
			}
			ns.codes[r.codeHash] = r.code
		}
		if r.storage != nil {
			if !storageCopied {
				storage := make(map[types.Address]*trie.Trie, len(ns.storage)+1)
				for k, v := range ns.storage {
					storage[k] = v
				}
				ns.storage = storage
				storageCopied = true
			}
			ns.storage[jobs[i].addr] = r.storage
		}
	}
	ns.accounts.Batch(keys, leaves)
	return ns
}

// RootParallel returns the world-state root, hashing the accounts trie's
// subtrees with up to `workers` goroutines. Bit-identical to Root().
func (s *Snapshot) RootParallel(workers int) types.Hash {
	return types.Hash(s.accounts.HashParallel(workers))
}

// ForEachAccount visits every account in the snapshot in hashed-key order.
// The address is NOT recoverable from the trie (keys are keccak(addr)), so
// the callback receives the account's decoded fields keyed by hashed
// address — useful for audits, dumps and invariant checks.
func (s *Snapshot) ForEachAccount(fn func(hashedAddr types.Hash, acct Account) bool) {
	s.accounts.ForEach(func(key, leaf []byte) bool {
		dec, ok := decodeAccount(leaf)
		if !ok {
			return true
		}
		return fn(types.BytesToHash(key), Account{
			Nonce:    dec.nonce,
			Balance:  dec.balance,
			CodeHash: dec.codeHash,
		})
	})
}

// AccountCount returns the number of accounts (O(n); diagnostics).
func (s *Snapshot) AccountCount() int {
	n := 0
	s.ForEachAccount(func(types.Hash, Account) bool { n++; return true })
	return n
}

// TotalBalance sums every account balance (supply audits in tests).
func (s *Snapshot) TotalBalance() uint256.Int {
	var total uint256.Int
	s.ForEachAccount(func(_ types.Hash, a Account) bool {
		total.Add(&total, &a.Balance)
		return true
	})
	return total
}

// genesisAccount seeds an account directly (used only while building genesis).
type genesisAccount struct {
	Balance uint256.Int
	Nonce   uint64
	Code    []byte
	Storage map[types.Hash]uint256.Int
}

// GenesisBuilder accumulates accounts and produces the genesis Snapshot.
type GenesisBuilder struct {
	accounts map[types.Address]*genesisAccount
}

// NewGenesisBuilder returns an empty genesis builder.
func NewGenesisBuilder() *GenesisBuilder {
	return &GenesisBuilder{accounts: make(map[types.Address]*genesisAccount)}
}

// AddAccount seeds an externally-owned account with a balance.
func (g *GenesisBuilder) AddAccount(addr types.Address, balance *uint256.Int) *GenesisBuilder {
	g.accounts[addr] = &genesisAccount{Balance: *balance}
	return g
}

// AddContract seeds a contract account with code, balance and storage.
func (g *GenesisBuilder) AddContract(addr types.Address, balance *uint256.Int, code []byte, storage map[types.Hash]uint256.Int) *GenesisBuilder {
	g.accounts[addr] = &genesisAccount{Balance: *balance, Code: code, Storage: storage}
	return g
}

// Build produces the genesis snapshot.
func (g *GenesisBuilder) Build() *Snapshot {
	cs := NewChangeSet()
	for addr, acct := range g.accounts {
		ch := &AccountChange{
			Nonce:   acct.Nonce,
			Balance: acct.Balance,
			Storage: acct.Storage,
		}
		if len(acct.Code) > 0 {
			ch.Code, ch.CodeSet = acct.Code, true
		}
		cs.Accounts[addr] = ch
	}
	return NewSnapshot().Commit(cs)
}
