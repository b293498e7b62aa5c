// The flat snapshot acceleration layer (disk backend only): a chain of
// immutable per-commit diff layers giving O(1) account and slot reads for
// recently written state, falling back to the trie (through the node cache,
// then disk) on miss. This is the gtos/geth "snapshot" idea reduced to its
// core: the flat layers are pure acceleration — every answer they give is
// byte-identical to the trie's (the parity suite proves it), and dropping
// them (depth cap, oversized commits) only costs speed.
package state

import (
	"sync/atomic"

	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// flatAccount is the decoded account carried in a flat layer.
type flatAccount struct {
	nonce       uint64
	balance     uint256.Int
	storageRoot types.Hash
	codeHash    types.Hash
}

// flatMaxDepth caps the layer chain: a read missing this many layers is
// better served by the trie's node cache than by a longer pointer chase,
// and the cap bounds the flat layers' memory to recent-write working set.
const flatMaxDepth = 64

// flatMaxLayerAccounts keeps bulk commits (genesis chunks, huge blocks) out
// of the flat stack: a layer that large duplicates a trie-sized slab of
// state in memory for little locality benefit.
const flatMaxLayerAccounts = 4096

// flatLayer is one commit's diff. Layers are immutable after construction;
// only the parent pointer is atomic, so the depth-cap truncation can detach
// the tail while concurrent readers walk the chain.
type flatLayer struct {
	parent   atomic.Pointer[flatLayer]
	accounts map[types.Address]flatAccount
	storage  map[types.Address][]SlotChange // one commit's sorted slots, as its change set holds them
}

// pushFlatLayer stacks one commit's diff on parent and enforces the depth
// cap. Oversized diffs return parent unchanged (the commit is served by the
// trie alone).
func pushFlatLayer(parent *flatLayer, accounts map[types.Address]flatAccount, storage map[types.Address][]SlotChange) *flatLayer {
	if len(accounts) == 0 || len(accounts) > flatMaxLayerAccounts {
		return parent
	}
	l := &flatLayer{accounts: accounts, storage: storage}
	l.parent.Store(parent)
	cur := l
	for depth := 1; cur != nil; depth++ {
		next := cur.parent.Load()
		if depth >= flatMaxDepth && next != nil {
			cur.parent.Store(nil) // truncate: older layers fall to the trie
			break
		}
		cur = next
	}
	return l
}

// account returns the most recent flat diff for addr, walking newest-first.
func (l *flatLayer) account(addr types.Address) (flatAccount, bool) {
	for cur := l; cur != nil; cur = cur.parent.Load() {
		if a, ok := cur.accounts[addr]; ok {
			return a, true
		}
	}
	return flatAccount{}, false
}

// slot returns the most recent flat diff for (addr, slot). A hit includes
// zero values: a deleted slot's flat answer is authoritative, matching the
// trie's "absent reads as zero".
func (l *flatLayer) slot(addr types.Address, slot types.Hash) (uint256.Int, bool) {
	for cur := l; cur != nil; cur = cur.parent.Load() {
		if slots, ok := cur.storage[addr]; ok {
			ch := AccountChange{Slots: slots}
			if v, ok := ch.Slot(slot); ok {
				return v, true
			}
		}
		// The account may have been rewritten in this layer WITHOUT this
		// slot: keep walking — older layers and the trie still hold it.
	}
	return uint256.Int{}, false
}

// depth returns the chain length (diagnostics and tests).
func (l *flatLayer) depth() int {
	n := 0
	for cur := l; cur != nil; cur = cur.parent.Load() {
		n++
	}
	return n
}
