package types

import (
	"math/rand"
	"testing"
)

func k(addr byte) StateKey { return AccountKey(BytesToAddress([]byte{addr})) }
func sk(addr, slot byte) StateKey {
	return StorageKey(BytesToAddress([]byte{addr}), BytesToHash([]byte{slot}))
}

func TestNoteReadFirstObservationWins(t *testing.T) {
	s := NewAccessSet()
	s.NoteRead(k(1), 5)
	s.NoteRead(k(1), 9)
	if s.Reads[k(1)] != 5 {
		t.Fatalf("re-read overwrote version: %d", s.Reads[k(1)])
	}
}

func TestProfileRoundTripThroughAccessSet(t *testing.T) {
	s := NewAccessSet()
	s.NoteRead(k(3), 7)
	s.NoteRead(sk(2, 9), 1)
	s.NoteWrite(k(3))
	s.NoteWrite(sk(5, 5))
	p := ProfileFromAccessSet(s, 33000)
	back := AccessSetFromProfile(p)
	if len(back.Reads) != len(s.Reads) || len(back.Writes) != len(s.Writes) {
		t.Fatal("size mismatch")
	}
	for key, v := range s.Reads {
		if back.Reads[key] != v {
			t.Fatalf("read %v version mismatch", key)
		}
	}
	for key := range s.Writes {
		if _, ok := back.Writes[key]; !ok {
			t.Fatalf("write %v missing", key)
		}
	}
}

func TestProfileDeterministicOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		s := NewAccessSet()
		keys := []StateKey{k(1), k(2), sk(1, 1), sk(1, 2), sk(9, 1)}
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, key := range keys {
			s.NoteRead(key, 0)
			s.NoteWrite(key)
		}
		p := ProfileFromAccessSet(s, 1)
		for i := 1; i < len(p.Reads); i++ {
			if !p.Reads[i-1].Key.Less(p.Reads[i].Key) {
				t.Fatal("reads not sorted")
			}
		}
		for i := 1; i < len(p.Writes); i++ {
			if !p.Writes[i-1].Less(p.Writes[i]) {
				t.Fatal("writes not sorted")
			}
		}
	}
}

func TestBlockProfileEncodeDecode(t *testing.T) {
	s1 := NewAccessSet()
	s1.NoteRead(k(1), 0)
	s1.NoteWrite(k(1))
	s1.NoteWrite(sk(7, 3))
	s2 := NewAccessSet()
	s2.NoteRead(sk(7, 3), 1)

	bp := &BlockProfile{Txs: []*TxProfile{
		ProfileFromAccessSet(s1, 21000),
		ProfileFromAccessSet(s2, 54321),
	}}
	dec, err := DecodeBlockProfile(bp.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec.Txs) != 2 {
		t.Fatalf("got %d txs", len(dec.Txs))
	}
	for i := range bp.Txs {
		if !bp.Txs[i].Equal(dec.Txs[i]) {
			t.Fatalf("tx profile %d mismatch", i)
		}
	}
}

func TestBlockProfileDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBlockProfile([]byte{0x85, 1, 2}); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := DecodeBlockProfile(nil); err == nil {
		t.Fatal("accepted empty")
	}
}

func TestProfileConflictsGranularity(t *testing.T) {
	// p writes slot (1,1); q writes slot (1,2). Different slots of the same
	// contract: no conflict at slot granularity, conflict at account level.
	sp := NewAccessSet()
	sp.NoteWrite(sk(1, 1))
	sq := NewAccessSet()
	sq.NoteWrite(sk(1, 2))
	p := ProfileFromAccessSet(sp, 1)
	q := ProfileFromAccessSet(sq, 1)
	if p.Conflicts(q, false) {
		t.Fatal("slot-granular: false conflict")
	}
	if !p.Conflicts(q, true) {
		t.Fatal("account-level: missed conflict")
	}
}

func TestSameAccessKeysIgnoresVersions(t *testing.T) {
	a := NewAccessSet()
	a.NoteRead(k(1), 3)
	a.NoteWrite(k(2))
	b := NewAccessSet()
	b.NoteRead(k(1), 9) // different version
	b.NoteWrite(k(2))
	pa, pb := ProfileFromAccessSet(a, 5), ProfileFromAccessSet(b, 6)
	if !pa.SameAccessKeys(pb) {
		t.Fatal("SameAccessKeys should ignore versions and gas")
	}
	if pa.Equal(pb) {
		t.Fatal("Equal should not ignore versions")
	}
	b.NoteWrite(k(3))
	pb = ProfileFromAccessSet(b, 6)
	if pa.SameAccessKeys(pb) {
		t.Fatal("SameAccessKeys missed extra write")
	}
}
