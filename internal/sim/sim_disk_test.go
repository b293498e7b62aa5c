package sim

import (
	"testing"

	"blockpilot/internal/node"
)

// TestScenarioMatrixDiskBackend (satellite of ISSUE 10): the fault
// scenarios must hold unchanged when the whole cluster — reference chain,
// proposer and every validator incarnation — commits through the persistent
// node store. Baseline covers the steady state; crash covers blockdb replay
// re-validating disk-backed blocks from genesis; gaslimit covers mempool
// spill with disk commits on the critical path. All four oracles are
// backend-blind and must pass as-is.
func TestScenarioMatrixDiskBackend(t *testing.T) {
	for _, scenario := range []string{"baseline", "crash", "gaslimit"} {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7} {
				cfg, err := Preset(scenario, seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg.StateBackend = node.BackendDisk
				cfg.Dir = t.TempDir()
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("scenario %s seed %d: %v", scenario, seed, err)
				}
				if len(rep.Problems) > 0 {
					t.Fatalf("scenario %s seed %d (disk): %d oracle failures (repro: %s)\n%s",
						scenario, seed, len(rep.Problems), rep.ReproLine(), rep.Render())
				}
				if rep.ReproLine() != "" && cfg.StateBackend == node.BackendDisk {
					if want := " -state-backend disk"; !contains(rep.ReproLine(), want) {
						t.Fatalf("repro line %q does not tag the backend", rep.ReproLine())
					}
				}
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestDiskBackendDigestParity: persistence must be invisible to consensus —
// the same (seed, scenario) run on the mem and disk backends lands on the
// identical scheduling-independent digest (the digest deliberately excludes
// the backend), so every committed hash, tamper verdict and tx count agrees.
func TestDiskBackendDigestParity(t *testing.T) {
	digest := func(backend string) string {
		cfg, err := Preset("baseline", 11)
		if err != nil {
			t.Fatal(err)
		}
		cfg.StateBackend = backend
		cfg.Dir = t.TempDir()
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Problems) > 0 {
			t.Fatalf("%s backend: %v", backend, rep.Problems)
		}
		return rep.Digest
	}
	if m, d := digest(node.BackendMem), digest(node.BackendDisk); m != d {
		t.Fatalf("digest diverged across backends: mem %s disk %s", m, d)
	}
}
