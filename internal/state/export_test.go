package state

import (
	"blockpilot/internal/rlp"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// ForEachStorage visits every slot of addr's storage trie in hashed-key
// order (both backends; the parity suite iterates full slot state with it).
func (s *Snapshot) ForEachStorage(addr types.Address, fn func(hashedSlot types.Hash, val uint256.Int) bool) {
	var st *trie.Trie
	if s.db != nil {
		a, ok := s.lookupHashed(s.hashedAddr(addr))
		if !ok {
			return
		}
		st = s.storageTrie(a.storageRoot)
	} else {
		st = s.storage[addr]
		if st == nil {
			return
		}
	}
	st.ForEach(func(key, leaf []byte) bool {
		var v uint256.Int
		if content, _, err := rlp.SplitString(leaf); err == nil {
			v.SetBytes(content)
		}
		return fn(types.BytesToHash(key), v)
	})
}
