package state

import (
	"bytes"
	"slices"
	"testing"

	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// refChange is one account of the map-based write set that the sorted
// ChangeSet replaced.
type refChange struct {
	Nonce   uint64
	Balance uint256.Int
	Code    []byte
	CodeSet bool
	Storage map[types.Hash]uint256.Int
}

// mergeRef is the map-based ChangeSet.Merge that Fold replaced, kept as its
// reference: it applies other on top of cs (other wins on overlapping fields).
func mergeRef(cs map[types.Address]*refChange, other *ChangeSet) {
	for _, oc := range other.Accounts {
		c, ok := cs[oc.Addr]
		if !ok {
			c = &refChange{}
			cs[oc.Addr] = c
		}
		c.Nonce = oc.Nonce
		c.Balance = oc.Balance
		if oc.CodeSet {
			c.Code, c.CodeSet = oc.Code, true
		}
		if c.Storage == nil && len(oc.Slots) > 0 { // an EOA never needs one
			c.Storage = make(map[types.Hash]uint256.Int, len(oc.Slots))
		}
		for _, s := range oc.Slots {
			c.Storage[s.Slot] = s.Val
		}
	}
}

// foldParts decodes per-transaction change sets from data, each sorted and
// unique by construction (no Fold involved): per part, a mask over six
// addresses; per account, a nonce, a balance (0 reads as zero), a flags byte
// (bit 0: the part sets code, flags>>1 its one byte) and a mask over six
// slots; per slot, a value (0: a zero write).
func foldParts(data []byte) []*ChangeSet {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	var parts []*ChangeSet
	for {
		mask, ok := next()
		if !ok {
			return parts
		}
		part := &ChangeSet{}
		for a := 0; a < 6; a++ {
			if mask&(1<<a) == 0 {
				continue
			}
			nonce, _ := next()
			bal, _ := next()
			flags, _ := next()
			slotMask, _ := next()
			ch := AccountChange{Addr: types.Address{0: byte(a + 1)}, Nonce: uint64(nonce), Balance: *uint256.NewInt(uint64(bal))}
			if flags&1 != 0 {
				ch.Code, ch.CodeSet = []byte{flags >> 1}, true
			}
			for s := 0; s < 6; s++ {
				if slotMask&(1<<s) != 0 {
					v, _ := next()
					ch.Slots = append(ch.Slots, SlotChange{Slot: types.Hash{0: byte(s + 1)}, Val: *uint256.NewInt(uint64(v))})
				}
			}
			part.Accounts = append(part.Accounts, ch)
		}
		parts = append(parts, part)
	}
}

// FuzzFoldVsMerge: folding per-transaction change sets — overlapping
// accounts, code sets, slot overwrites, zero values — equals merging them in
// order with the map-based Merge, field by field; the fold is sorted and
// unique, and shares no slot array with its parts.
func FuzzFoldVsMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 1, 10, 0, 0, 0x01, 2, 20, 0, 0})                               // same account twice: the last scalars win
	f.Add([]byte{0x03, 1, 10, 3, 0x03, 7, 8, 2, 5, 0, 0, 0x01, 3, 30, 0, 0x06, 0, 9}) // code sticks, slots form a union, a zero write
	f.Add([]byte{0x3f, 1, 1, 1, 0x3f, 1, 2, 3, 4, 5, 6, 0x3f, 2, 2, 5, 0x21, 9, 9, 0x20, 2, 2, 0, 0, 2, 2, 0, 0, 2, 2, 0, 0, 2, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts := foldParts(data)
		ref := map[types.Address]*refChange{}
		for _, p := range parts {
			mergeRef(ref, p)
		}
		got := Fold(parts...)
		for _, p := range parts { // a fold that shared a part's slots would see this
			for i := range p.Accounts {
				for j := range p.Accounts[i].Slots {
					p.Accounts[i].Slots[j].Val.SetUint64(0xdead)
				}
			}
		}
		if len(got.Accounts) != len(ref) {
			t.Fatalf("fold has %d accounts, merge %d", len(got.Accounts), len(ref))
		}
		for i, ch := range got.Accounts {
			if i > 0 && bytes.Compare(got.Accounts[i-1].Addr[:], ch.Addr[:]) >= 0 {
				t.Fatalf("accounts unsorted at %d", i)
			}
			want := ref[ch.Addr]
			if want == nil || ch.Nonce != want.Nonce || ch.Balance != want.Balance || ch.CodeSet != want.CodeSet || !bytes.Equal(ch.Code, want.Code) {
				t.Fatalf("account %x: fold %+v, merge %+v", ch.Addr[:1], ch, want)
			}
			if len(ch.Slots) != len(want.Storage) {
				t.Fatalf("account %x: fold has %d slots, merge %d", ch.Addr[:1], len(ch.Slots), len(want.Storage))
			}
			if !slices.IsSortedFunc(ch.Slots, func(a, b SlotChange) int { return bytes.Compare(a.Slot[:], b.Slot[:]) }) {
				t.Fatalf("account %x: slots unsorted", ch.Addr[:1])
			}
			for _, s := range ch.Slots {
				if v, ok := want.Storage[s.Slot]; !ok || v != s.Val {
					t.Fatalf("account %x slot %x: fold %s, merge %s/%v", ch.Addr[:1], s.Slot[:1], s.Val.String(), v.String(), ok)
				}
			}
		}
	})
}
