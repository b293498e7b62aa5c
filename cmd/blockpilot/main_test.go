package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"blockpilot/internal/state"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
)

// TestRunForkedRounds runs three rounds in which both proposers are elected
// on each state backend: every node must validate every block it did not
// propose, and all of them must end on the same height. The disk run keeps
// its node store under -datadir, and every root live in it at exit must
// open again once the store is reopened.
func TestRunForkedRounds(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			args := []string{"-rounds", "3", "-proposers", "2", "-validators", "1", "-fork-prob", "1",
				"-txs", "24", "-threads", "2", "-state-backend", backend}
			dir := t.TempDir()
			if backend == "disk" {
				args = append(args, "-datadir", dir)
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "every node converged on height 3") {
				t.Errorf("no converged line:\n%s", out.String())
			}
			if strings.Contains(out.String(), "REJECTED") {
				t.Errorf("a block was rejected:\n%s", out.String())
			}
			if backend == "disk" {
				checkLiveRoots(t, filepath.Join(dir, "state.db"))
			}
		})
	}
}

// checkLiveRoots reopens the node store at path and opens a snapshot at
// every live root, reading each state's every account.
func checkLiveRoots(t *testing.T, path string) {
	t.Helper()
	db, err := trie.OpenDatabase(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	roots := db.LiveRoots()
	// Genesis plus the states of two sibling blocks in each of three rounds.
	if len(roots) != 1+2*3 {
		t.Fatalf("%d live roots in the reopened store, want 7", len(roots))
	}
	for _, root := range roots {
		snap, err := state.OpenSnapshot(db, types.Hash(root))
		if err != nil {
			t.Fatal(err)
		}
		if n := snap.AccountCount(); n == 0 {
			t.Errorf("root %x: no accounts", root[:8])
		}
	}
}
