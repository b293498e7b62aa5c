package workload

import (
	"path/filepath"
	"testing"

	"blockpilot/internal/trie"
)

// TestGenesisStateIntoParity: the chunked disk-backed genesis build must
// land on exactly the in-memory genesis root, for chunk sizes that force
// many intermediate commits and for one that fits genesis in a single
// commit.
func TestGenesisStateIntoParity(t *testing.T) {
	cfg := Default()
	cfg.NumAccounts = 400
	cfg.TokenHolders = 64
	memRoot := New(cfg).GenesisState().Root()

	for _, chunk := range []int{128, 1 << 20} {
		db, err := trie.OpenDatabase(filepath.Join(t.TempDir(), "state.db"), 0)
		if err != nil {
			t.Fatal(err)
		}
		st := New(cfg).GenesisStateInto(db, chunk)
		if st.Root() != memRoot {
			t.Fatalf("chunk=%d: disk genesis root diverged from in-memory build", chunk)
		}
		if roots := db.LiveRoots(); len(roots) != 1 {
			t.Fatalf("chunk=%d: %d live roots after genesis, want 1 (intermediates released)", chunk, len(roots))
		}
		db.Close()
	}
}

// TestTokenHoldersCap: capping holders must bound genesis token storage
// while leaving zero-cap behavior (everyone seeded) unchanged.
func TestTokenHoldersCap(t *testing.T) {
	cfg := Default()
	cfg.NumAccounts = 50
	cfg.NumTokens = 2
	uncapped := New(cfg).GenesisState().Root()
	cfg.TokenHolders = cfg.NumAccounts // explicit full population
	full := New(cfg).GenesisState().Root()
	if uncapped != full {
		t.Fatal("TokenHolders == NumAccounts changed the genesis root")
	}
	cfg.TokenHolders = 5
	capped := New(cfg).GenesisState()
	if capped.Root() == uncapped {
		t.Fatal("capping holders did not change the genesis root")
	}
	token := New(cfg).tokens[0]
	accounts := New(cfg).Accounts()
	if v := capped.Storage(token, accounts[4].Hash()); v.IsZero() {
		t.Fatal("holder inside the cap has no seeded balance")
	}
	if v := capped.Storage(token, accounts[5].Hash()); !v.IsZero() {
		t.Fatal("holder outside the cap got a seeded balance")
	}
}
