package state

import (
	"testing"

	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

func proofGenesis() *Snapshot {
	return NewGenesisBuilder().
		AddAccount(addr(1), u(12345)).
		AddContract(addr(2), u(7), []byte{0xfe, 0xed}, map[types.Hash]uint256.Int{
			slot(1): *u(111),
			slot(2): *u(222),
		}).
		Build()
}

func TestAccountProofRoundTrip(t *testing.T) {
	s := proofGenesis()
	root := s.Root()

	acct, err := VerifyAccountProof(root, s.ProveAccount(addr(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !acct.Exists || !acct.Balance.Eq(u(12345)) || acct.Nonce != 0 {
		t.Fatalf("verified account = %+v", acct)
	}
	if acct.CodeHash != EmptyCodeHash {
		t.Fatal("EOA code hash")
	}

	// Contract account carries its real code hash and storage root.
	c, err := VerifyAccountProof(root, s.ProveAccount(addr(2)))
	if err != nil {
		t.Fatal(err)
	}
	if c.CodeHash == EmptyCodeHash || c.StorageRoot == (types.Hash{}) {
		t.Fatalf("contract leaf = %+v", c)
	}
}

func TestAccountProofAbsence(t *testing.T) {
	s := proofGenesis()
	acct, err := VerifyAccountProof(s.Root(), s.ProveAccount(addr(99)))
	if err != nil {
		t.Fatal(err)
	}
	if acct.Exists {
		t.Fatal("absent account proved present")
	}
}

func TestStorageProofRoundTrip(t *testing.T) {
	s := proofGenesis()
	root := s.Root()
	v, err := VerifyStorageProof(root, s.ProveStorage(addr(2), slot(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Eq(u(111)) {
		t.Fatalf("slot1 = %s", v.String())
	}
	// Absent slot proves zero.
	v, err = VerifyStorageProof(root, s.ProveStorage(addr(2), slot(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsZero() {
		t.Fatalf("absent slot = %s", v.String())
	}
}

func TestStorageProofAgainstWrongRootFails(t *testing.T) {
	s := proofGenesis()
	proof := s.ProveStorage(addr(2), slot(1))
	badRoot := s.Root()
	badRoot[0] ^= 0x80
	if _, err := VerifyStorageProof(badRoot, proof); err == nil {
		t.Fatal("proof accepted against wrong root")
	}
}

func TestProofTracksCommits(t *testing.T) {
	s := proofGenesis()
	s2 := s.Commit(NewChangeSet(AccountChange{
		Addr: addr(2), Nonce: 0, Balance: *u(7),
		Slots: []SlotChange{{Slot: slot(1), Val: *u(999)}},
	}))

	// Old root proves the old value; new root proves the new one.
	v, err := VerifyStorageProof(s.Root(), s.ProveStorage(addr(2), slot(1)))
	if err != nil || !v.Eq(u(111)) {
		t.Fatalf("old proof: %s %v", v.String(), err)
	}
	v, err = VerifyStorageProof(s2.Root(), s2.ProveStorage(addr(2), slot(1)))
	if err != nil || !v.Eq(u(999)) {
		t.Fatalf("new proof: %s %v", v.String(), err)
	}
}
