package state

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"

	"blockpilot/internal/crypto"
	"blockpilot/internal/rlp"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Snapshot is a committed world state at a block boundary. It is immutable:
// Commit returns a new Snapshot sharing all unchanged trie nodes with the
// old one. Sharing is not free retention, though: each snapshot keeps the
// nodes its commit replaced in its successors alive, so a chain holds only
// the snapshots of its last chain.StateWindow heights.
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
	// codes maps above stay empty), and every read walks the trie through
	// db's decoded-node cache (see disk.go).
	db *trie.Database
	// A disk commit returns at its root and persists behind it (see
	// CommitParallel): root is that root, and done closes once the persist
	// has finished. Both are unset when nothing persists the snapshot.
	root types.Hash
	done chan struct{}
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

// encodeAccount serializes an account leaf into a slice of its own, exactly
// as long: the trie keeps it.
func encodeAccount(nonce uint64, balance *uint256.Int, storageRoot, codeHash types.Hash) []byte {
	var buf [128]byte // the longest leaf is 2 + 9 + 33 + 33 + 33 bytes
	enc, list := rlp.StartList(buf[:0])
	enc = rlp.AppendUint(enc, nonce)
	enc = rlp.AppendString(enc, balance.Bytes())
	enc = rlp.AppendString(enc, storageRoot[:])
	enc = rlp.AppendString(enc, codeHash[:])
	return bytes.Clone(rlp.EndList(enc, list))
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
// the disk backend it counts one logical read.
func (s *Snapshot) lookup(addr types.Address) (decodedAccount, bool) {
	if s.db != nil {
		s.db.CountLogicalRead()
	}
	return s.lookupHashed(s.hashedAddr(addr))
}

// lookupHashed is lookup with the trie key already computed — the commit
// path hoists the hash so it is computed once per account instead of once
// for the lookup and again for the trailing accounts.Update.
func (s *Snapshot) lookupHashed(hashedAddr []byte) (decodedAccount, bool) {
	s.wait()
	leaf := s.accounts.Get(hashedAddr)
	if leaf == nil {
		return decodedAccount{}, false
	}
	return decodeAccount(leaf)
}

// Account implements Reader: one lookup — one trie walk and one leaf decode
// — answers every scalar field. A leaf stored with a zero code hash reads as
// EmptyCodeHash.
func (s *Snapshot) Account(addr types.Address) (Account, bool) {
	a, ok := s.lookup(addr)
	if !ok {
		return Account{}, false
	}
	if a.codeHash == (types.Hash{}) {
		a.codeHash = EmptyCodeHash
	}
	return Account{Nonce: a.nonce, Balance: a.balance, CodeHash: a.codeHash}, true
}

// Nonce, Balance, CodeHash (zero for absent accounts) and Exists are
// single-field conveniences over Account for tools and tests.
func (s *Snapshot) Nonce(addr types.Address) uint64 {
	a, _ := s.Account(addr)
	return a.Nonce
}

func (s *Snapshot) Balance(addr types.Address) uint256.Int {
	a, _ := s.Account(addr)
	return a.Balance
}

func (s *Snapshot) CodeHash(addr types.Address) types.Hash {
	a, _ := s.Account(addr)
	return a.CodeHash
}

func (s *Snapshot) Exists(addr types.Address) bool {
	_, ok := s.Account(addr)
	return ok
}

// Code implements Reader.
func (s *Snapshot) Code(addr types.Address) []byte {
	a, _ := s.Account(addr)
	if !a.HasCode() {
		return nil
	}
	if s.db != nil {
		code, _ := s.db.Code([32]byte(a.CodeHash))
		return code
	}
	return s.codes[a.CodeHash]
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

// wait returns once no persist is rewriting s's accounts trie: every path
// that walks the trie calls it first. It costs one nil check unless s comes
// from a disk commit.
func (s *Snapshot) wait() {
	if s.done != nil {
		s.waitPersist()
	}
}

func (s *Snapshot) waitPersist() {
	select {
	case <-s.done:
	default:
		mPersistWaits.Inc()
		<-s.done
	}
}

// Root returns the world-state root hash committed in block headers. It
// never waits: a disk commit recorded its root before it returned.
func (s *Snapshot) Root() types.Hash {
	if s.done != nil {
		return s.root
	}
	return types.Hash(s.accounts.Hash())
}

// Copy returns an independent snapshot sharing all structure: snapshots are
// immutable, and a commit copies the storage and code maps before its first
// write to either.
func (s *Snapshot) Copy() *Snapshot { return s.child() }

// resolvedChange is one account of a change set resolved against the parent
// snapshot: what a commit path needs to install it.
type resolvedChange struct {
	hashedAddr []byte
	leaf       []byte     // the account's new accounts-trie leaf
	storage    *trie.Trie // the account's new storage trie; nil when no slot is dirty
	codeHash   types.Hash // the code's key, when codeSet
	code       []byte
	codeSet    bool
}

// resolveChange is the per-account body of a commit: parent lookup, new
// scalar fields and code hash, storage-trie batch and root, leaf encoding. It
// only reads the immutable parent, so resolveChanges may call it from worker
// goroutines; where tries and code are stored is the commit's business.
func (s *Snapshot) resolveChange(ch *AccountChange) resolvedChange {
	// One keccak(addr) per account, shared by the lookup and the caller's
	// accounts-trie update.
	addr := ch.Addr
	r := resolvedChange{hashedAddr: s.hashedAddr(addr)}
	acct, existed := s.lookupHashed(r.hashedAddr)
	acct.nonce = ch.Nonce
	acct.balance = ch.Balance
	if !existed {
		acct.codeHash = EmptyCodeHash
		acct.storageRoot = types.Hash(trie.EmptyRoot)
	}
	if ch.CodeSet {
		acct.codeHash = types.Hash(crypto.Sum256(ch.Code))
		r.codeHash, r.code, r.codeSet = acct.codeHash, ch.Code, true
	}
	if len(ch.Slots) > 0 {
		var st *trie.Trie
		switch {
		case s.db != nil:
			st = s.storageTrie(acct.storageRoot)
		case s.storage[addr] != nil:
			st = s.storage[addr].Copy() // tries are persistent; Commit replaces, never mutates
		default:
			st = trie.New()
		}
		r.storage = s.applyStorage(st, ch.Slots)
		acct.storageRoot = types.Hash(r.storage.Hash())
	}
	r.leaf = encodeAccount(acct.nonce, &acct.balance, acct.storageRoot, acct.codeHash)
	return r
}

// resolveChanges runs resolveChange over every account of cs and returns the
// results index-aligned with cs.Accounts. With workers > 1 the accounts are
// fanned over that many goroutines (they are independent by construction:
// one storage trie each, disjoint leaves in the accounts trie); otherwise the
// one worker runs inline.
func (s *Snapshot) resolveChanges(cs *ChangeSet, workers int) []resolvedChange {
	results := make([]resolvedChange, len(cs.Accounts))
	var next atomic.Int64
	worker := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(cs.Accounts) {
				return
			}
			results[i] = s.resolveChange(&cs.Accounts[i])
		}
	}
	if workers <= 1 {
		worker()
		return results
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	wg.Wait()
	return results
}

// child returns the shell of s's successor: a private handle on the accounts
// trie, everything else shared until a commit path replaces it.
func (s *Snapshot) child() *Snapshot {
	s.wait()
	return &Snapshot{accounts: s.accounts.Copy(), storage: s.storage, codes: s.codes, keys: s.keys, db: s.db}
}

// memInstaller copies a mem-backend snapshot's storage and code maps on
// first write, so a commit that touches neither shares both with its parent.
type memInstaller struct {
	ns                         *Snapshot
	storageCopied, codesCopied bool
}

func (m *memInstaller) install(addr types.Address, r *resolvedChange) {
	if r.codeSet {
		if !m.codesCopied {
			codes := make(map[types.Hash][]byte, len(m.ns.codes)+1)
			for k, v := range m.ns.codes {
				codes[k] = v
			}
			m.ns.codes, m.codesCopied = codes, true
		}
		m.ns.codes[r.codeHash] = r.code
	}
	if r.storage != nil {
		if !m.storageCopied {
			storage := make(map[types.Address]*trie.Trie, len(m.ns.storage)+1)
			for k, v := range m.ns.storage {
				storage[k] = v
			}
			m.ns.storage, m.storageCopied = storage, true
		}
		m.ns.storage[addr] = r.storage
	}
}

// Commit applies a change set and returns the resulting snapshot; the
// receiver is unchanged. It is CommitParallel on the calling goroutine.
func (s *Snapshot) Commit(cs *ChangeSet) *Snapshot {
	return s.CommitParallel(cs, 1)
}

// applyStorage batch-applies one account's dirty slots to its (already
// copied, privately owned) storage trie. Zeroed slots become deletes —
// trie.Batch treats empty values as deletions, matching Ethereum state
// semantics.
func (s *Snapshot) applyStorage(st *trie.Trie, slots []SlotChange) *trie.Trie {
	keys := make([][]byte, len(slots))
	vals := make([][]byte, len(slots))
	for i := range slots {
		keys[i] = s.hashedSlot(slots[i].Slot)
		if b := slots[i].Val.Bytes(); len(b) > 0 {
			vals[i] = rlp.AppendString(make([]byte, 0, 1+len(b)), b)
		}
	}
	st.Batch(keys, vals)
	return st
}

// minParallelCommitAccounts is the change-set size below which goroutine
// fan-out costs more than the trie work it parallelizes.
const minParallelCommitAccounts = 4

// CommitParallel is the one commit body, on both backends: resolve every
// account against the parent (resolveChange, fanned across `workers`
// goroutines unless workers <= 1 or the change set is small), install the
// results' storage tries and code (in memory only), one batch insert into the
// accounts trie (sorted bottom-up build, one pass), and on disk the hash.
// There the commit returns at its root: it reserves the node store's lock
// for a batch and leaves the persist walk and the barrier to a goroutine (see
// persist), so that only the root — all a block's seal or check needs — is on
// the caller's path. Each phase is timed into its own
// blockpilot_state_commit_*_ns histogram. The snapshot does not depend on the
// worker count: same tries, same roots, same store bytes (parity suite in
// commit_test.go against the serial reference it replaced).
func (s *Snapshot) CommitParallel(cs *ChangeSet, workers int) *Snapshot {
	n := len(cs.Accounts)
	if n < minParallelCommitAccounts {
		workers = 1
	}
	span := telemetry.StartSpan(telemetry.StateCommitResolveSeconds)
	results := s.resolveChanges(cs, min(workers, n))
	span.End()

	span = telemetry.StartSpan(telemetry.StateCommitInsertSeconds)
	ns := s.child()
	mem := memInstaller{ns: ns}
	keys := make([][]byte, n)
	leaves := make([][]byte, n)
	for i := range results {
		if s.db == nil {
			mem.install(cs.Accounts[i].Addr, &results[i])
		}
		keys[i], leaves[i] = results[i].hashedAddr, results[i].leaf
	}
	ns.accounts.Batch(keys, leaves)
	span.End()
	if s.db != nil {
		span = telemetry.StartSpan(telemetry.StateCommitHashSeconds)
		ns.root = types.Hash(ns.accounts.HashParallel(workers)) // the persist walk takes each node's hash
		span.End()
		b := s.db.NewBatch()
		b.Reserve()
		ns.done = make(chan struct{})
		go ns.persist(b, results)
	}
	return ns
}

// RootParallel returns the world-state root, hashing the accounts trie's
// subtrees with up to `workers` goroutines. Bit-identical to Root(), and
// like it never waits.
func (s *Snapshot) RootParallel(workers int) types.Hash {
	if s.done != nil {
		return s.root
	}
	return types.Hash(s.accounts.HashParallel(workers))
}

// ForEachAccount visits every account in the snapshot in hashed-key order.
// The address is NOT recoverable from the trie (keys are keccak(addr)), so
// the callback receives the account's decoded fields keyed by hashed
// address — useful for audits, dumps and invariant checks.
func (s *Snapshot) ForEachAccount(fn func(hashedAddr types.Hash, acct Account) bool) {
	s.wait()
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
	accts := make([]AccountChange, 0, len(g.accounts))
	for addr, acct := range g.accounts {
		accts = append(accts, acct.change(addr, acct.Storage, true))
	}
	return NewSnapshot().Commit(NewChangeSet(accts...))
}

// change is the account's genesis write with the given slots; withCode adds
// its code.
func (acct *genesisAccount) change(addr types.Address, storage map[types.Hash]uint256.Int, withCode bool) AccountChange {
	ch := AccountChange{Addr: addr, Nonce: acct.Nonce, Balance: acct.Balance}
	if withCode && len(acct.Code) > 0 {
		ch.Code, ch.CodeSet = acct.Code, true
	}
	for slot, v := range storage {
		ch.Slots = append(ch.Slots, SlotChange{Slot: slot, Val: v})
	}
	slices.SortFunc(ch.Slots, compareSlot) // unique keys; sorted, Fold's stable sort is one pass
	return ch
}
