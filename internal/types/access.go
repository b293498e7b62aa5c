package types

import (
	"bytes"
	"fmt"
	"slices"

	"blockpilot/internal/rlp"
)

// KeyKind distinguishes the two conflict-detection units observed in real
// Ethereum workloads (Garamvölgyi et al.): account counters and storage.
type KeyKind uint8

const (
	// KeyAccount covers an account's balance, nonce and code as one unit.
	KeyAccount KeyKind = iota
	// KeyStorage covers a single contract storage slot.
	KeyStorage
)

// StateKey identifies one unit of conflict detection: an account, or one
// storage slot of a contract account. StateKey is comparable and is used as
// the key of the proposer's reserve table and the validator's dependency
// analysis.
type StateKey struct {
	Addr Address
	Slot Hash // zero unless Kind == KeyStorage
	Kind KeyKind
}

// AccountKey returns the account-level key for addr.
func AccountKey(addr Address) StateKey {
	return StateKey{Addr: addr, Kind: KeyAccount}
}

// StorageKey returns the storage-slot key for (addr, slot).
func StorageKey(addr Address, slot Hash) StateKey {
	return StateKey{Addr: addr, Slot: slot, Kind: KeyStorage}
}

func (k StateKey) String() string {
	if k.Kind == KeyAccount {
		return fmt.Sprintf("acct:%s", k.Addr)
	}
	return fmt.Sprintf("slot:%s[%s]", k.Addr, k.Slot)
}

// Compare imposes a deterministic total order on keys (for profile
// encoding): by kind, then address, then slot.
func (k *StateKey) Compare(o *StateKey) int {
	if k.Kind != o.Kind {
		return int(k.Kind) - int(o.Kind)
	}
	if c := bytes.Compare(k.Addr[:], o.Addr[:]); c != 0 {
		return c
	}
	return bytes.Compare(k.Slot[:], o.Slot[:])
}

// Less reports whether k sorts before o.
func (k StateKey) Less(o StateKey) bool { return k.Compare(&o) < 0 }

// sortKeys sorts keys into the profile's canonical order.
func sortKeys(keys []StateKey) {
	slices.SortFunc(keys, func(a, b StateKey) int { return a.Compare(&b) })
}

// Version numbers state snapshots in the proposer's OCC-WSI engine: version
// N is the state after the N-th committed transaction of the block.
type Version = uint64

// AccessSet records the reads (with the version each read observed) and the
// writes performed by a single speculative execution.
type AccessSet struct {
	Reads  map[StateKey]Version
	Writes map[StateKey]struct{}
}

// NewAccessSet returns an empty access set.
func NewAccessSet() *AccessSet {
	return &AccessSet{
		Reads:  make(map[StateKey]Version),
		Writes: make(map[StateKey]struct{}),
	}
}

// NoteRead records that key was read at the given snapshot version. The
// first observation wins: re-reads within one execution see the same
// snapshot, so the version cannot change.
func (a *AccessSet) NoteRead(key StateKey, v Version) {
	if _, ok := a.Reads[key]; !ok {
		a.Reads[key] = v
	}
}

// NoteWrite records that key was written.
func (a *AccessSet) NoteWrite(key StateKey) {
	a.Writes[key] = struct{}{}
}

// KeyVersion pairs a state key with the snapshot version it was read at.
type KeyVersion struct {
	Key     StateKey
	Version Version
}

// TxProfile is the per-transaction execution detail the proposer publishes
// in the block profile: sorted read set (with versions), sorted write set,
// and the gas the transaction consumed (the validator's scheduling weight).
type TxProfile struct {
	Reads   []KeyVersion
	Writes  []StateKey
	GasUsed uint64
}

// ProfileFromAccessSet converts a raw access set into canonical sorted form.
func ProfileFromAccessSet(a *AccessSet, gasUsed uint64) *TxProfile {
	p := &TxProfile{GasUsed: gasUsed}
	p.Reads = make([]KeyVersion, 0, len(a.Reads))
	for k, v := range a.Reads {
		p.Reads = append(p.Reads, KeyVersion{Key: k, Version: v})
	}
	slices.SortFunc(p.Reads, func(a, b KeyVersion) int { return a.Key.Compare(&b.Key) })
	p.Writes = make([]StateKey, 0, len(a.Writes))
	for k := range a.Writes {
		p.Writes = append(p.Writes, k)
	}
	sortKeys(p.Writes)
	return p
}

// BlockProfile is the execution metadata the proposer broadcasts alongside
// the block (paper §4.2): one TxProfile per transaction, in block order.
type BlockProfile struct {
	Txs []*TxProfile
}

// AppendTo appends the profile's RLP encoding to dst. A nil profile
// appends the empty list, as an empty one does.
func (bp *BlockProfile) AppendTo(dst []byte) []byte {
	if bp == nil {
		bp = &BlockProfile{}
	}
	dst, txs := rlp.StartList(dst)
	for _, tp := range bp.Txs {
		var tx, keys, key int
		dst, tx = rlp.StartList(dst)
		dst, keys = rlp.StartList(dst)
		for i := range tp.Reads {
			dst, key = rlp.StartList(dst)
			dst = appendKeyFields(dst, &tp.Reads[i].Key)
			dst = rlp.AppendUint(dst, tp.Reads[i].Version)
			dst = rlp.EndList(dst, key)
		}
		dst = rlp.EndList(dst, keys)
		dst, keys = rlp.StartList(dst)
		for i := range tp.Writes {
			dst, key = rlp.StartList(dst)
			dst = appendKeyFields(dst, &tp.Writes[i])
			dst = rlp.EndList(dst, key)
		}
		dst = rlp.EndList(dst, keys)
		dst = rlp.AppendUint(dst, tp.GasUsed)
		dst = rlp.EndList(dst, tx)
	}
	return rlp.EndList(dst, txs)
}

// Encode serializes the profile to RLP for broadcast.
func (bp *BlockProfile) Encode() []byte { return encode(bp) }

// appendKeyFields appends a key's three fields (inside the caller's list).
func appendKeyFields(dst []byte, k *StateKey) []byte {
	dst = rlp.AppendUint(dst, uint64(k.Kind))
	dst = rlp.AppendString(dst, k.Addr[:])
	return rlp.AppendString(dst, k.Slot[:])
}

// DecodeBlockProfile parses a profile from its RLP encoding.
func DecodeBlockProfile(b []byte) (*BlockProfile, error) {
	content, rest, err := rlp.SplitList(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, rlp.ErrTrailing
	}
	n, err := rlp.CountItems(content)
	if err != nil {
		return nil, err
	}
	// One slab for the block's TxProfiles; Reads and Writes are sized from
	// their element counts, so nothing is grown or thrown away.
	slab := make([]TxProfile, n)
	bp := &BlockProfile{Txs: make([]*TxProfile, n)}
	for i := range slab {
		tp := &slab[i]
		bp.Txs[i] = tp
		var (
			tc, keys, key []byte
			count         int
		)
		if tc, content, err = rlp.SplitList(content); err != nil {
			return nil, err
		}
		if keys, tc, err = rlp.SplitList(tc); err != nil {
			return nil, err
		}
		if count, err = rlp.CountItems(keys); err != nil {
			return nil, err
		}
		if count > 0 {
			tp.Reads = make([]KeyVersion, count)
		}
		for j := range tp.Reads {
			if key, keys, err = rlp.SplitList(keys); err != nil {
				return nil, err
			}
			if key, err = decodeKeyFields(&tp.Reads[j].Key, key); err != nil {
				return nil, err
			}
			if tp.Reads[j].Version, _, err = rlp.SplitUint(key); err != nil {
				return nil, err
			}
		}
		if keys, tc, err = rlp.SplitList(tc); err != nil {
			return nil, err
		}
		if count, err = rlp.CountItems(keys); err != nil {
			return nil, err
		}
		if count > 0 {
			tp.Writes = make([]StateKey, count)
		}
		for j := range tp.Writes {
			if key, keys, err = rlp.SplitList(keys); err != nil {
				return nil, err
			}
			if _, err = decodeKeyFields(&tp.Writes[j], key); err != nil {
				return nil, err
			}
		}
		if tp.GasUsed, tc, err = rlp.SplitUint(tc); err != nil {
			return nil, err
		}
		if len(tc) != 0 {
			return nil, rlp.ErrTrailing
		}
	}
	return bp, nil
}

// decodeKeyFields parses a key's three fields off the front of a key list's
// payload and returns what follows them.
func decodeKeyFields(k *StateKey, content []byte) ([]byte, error) {
	kind, content, err := rlp.SplitUint(content)
	if err != nil {
		return nil, err
	}
	k.Kind = KeyKind(kind)
	var s []byte
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, err
	}
	k.Addr = BytesToAddress(s)
	if s, content, err = rlp.SplitString(content); err != nil {
		return nil, err
	}
	k.Slot = BytesToHash(s)
	return content, nil
}

// SameAccessKeys reports whether two profiles touch exactly the same keys in
// the same read/write roles, ignoring versions and gas. Validators use this
// weaker check when replaying on a different base state than the proposer
// packed against (read versions are proposer-schedule specific).
func (p *TxProfile) SameAccessKeys(q *TxProfile) bool {
	if len(p.Reads) != len(q.Reads) || len(p.Writes) != len(q.Writes) {
		return false
	}
	for i := range p.Reads {
		if p.Reads[i].Key != q.Reads[i].Key {
			return false
		}
	}
	for i := range p.Writes {
		if p.Writes[i] != q.Writes[i] {
			return false
		}
	}
	return true
}

// MatchesAccessSet reports whether ProfileFromAccessSet(a, _) would pass
// SameAccessKeys against p, without building that profile: the sorted,
// duplicate-free keys of a's maps equal p's key lists position by position
// exactly when the lengths agree, p's lists are strictly ascending and every
// key of p is in a's map. A shipped profile with duplicate or unsorted keys
// is therefore rejected, as the positional comparison rejects it.
func (p *TxProfile) MatchesAccessSet(a *AccessSet) bool {
	if len(p.Reads) != len(a.Reads) || len(p.Writes) != len(a.Writes) {
		return false
	}
	for i := range p.Reads {
		k := &p.Reads[i].Key
		if i > 0 && p.Reads[i-1].Key.Compare(k) >= 0 {
			return false
		}
		if _, ok := a.Reads[*k]; !ok {
			return false
		}
	}
	for i := range p.Writes {
		k := &p.Writes[i]
		if i > 0 && p.Writes[i-1].Compare(k) >= 0 {
			return false
		}
		if _, ok := a.Writes[*k]; !ok {
			return false
		}
	}
	return true
}
