package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/validator"
)

// run executes one scenario at one seed, failing the test with the repro
// line on any oracle violation.
func run(t *testing.T, scenario string, seed int64) *Report {
	t.Helper()
	cfg, err := Preset(scenario, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dir = t.TempDir()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("scenario %s seed %d: %v", scenario, seed, err)
	}
	if len(rep.Problems) > 0 {
		t.Fatalf("scenario %s seed %d: %d oracle failures (repro: %s)\n%s",
			scenario, seed, len(rep.Problems), rep.ReproLine(), rep.Render())
	}
	return rep
}

// TestScenarioMatrix: every preset scenario must pass all four oracles at
// several seeds (the sim-smoke gate wired into make ci).
func TestScenarioMatrix(t *testing.T) {
	seeds := []int64{1, 2, 7, 42}
	for _, scenario := range Scenarios() {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				run(t, scenario, seed)
			}
		})
	}
}

// TestBeyondStateWindow: a baseline run past the validators' StateWindow
// holds every oracle, and its repro line replays that height count. The
// oracles read history from the runner, not from the chains' window.
func TestBeyondStateWindow(t *testing.T) {
	cfg, err := Preset("baseline", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Heights = chain.StateWindow + 16
	cfg.Dir = t.TempDir()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) > 0 {
		t.Fatalf("%d oracle failures (repro: %s)\n%s", len(rep.Problems), rep.ReproLine(), rep.Render())
	}
	if want := fmt.Sprintf("-sim-heights %d", cfg.Heights); !strings.HasSuffix(rep.ReproLine(), want) {
		t.Fatalf("repro line %q does not end in %q", rep.ReproLine(), want)
	}
}

// TestScenarioMatrixMVSTM repeats the full scenario matrix with the MV-STM
// proposer engine: the oracles are engine-blind, so every fault scenario
// must hold with Block-STM packing the canonical stream too.
func TestScenarioMatrixMVSTM(t *testing.T) {
	seeds := []int64{1, 2, 7, 42}
	for _, scenario := range Scenarios() {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				cfg, err := Preset(scenario, seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Engine = core.EngineMVSTM
				cfg.Dir = t.TempDir()
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("scenario %s seed %d engine mv-stm: %v", scenario, seed, err)
				}
				if len(rep.Problems) > 0 {
					t.Fatalf("scenario %s seed %d engine mv-stm: %d oracle failures (repro: %s)\n%s",
						scenario, seed, len(rep.Problems), rep.ReproLine(), rep.Render())
				}
			}
		})
	}
}

// TestScenarioMatrixAdaptive repeats the full scenario matrix with the
// contention controller attached to the canonical proposer, under both
// engines: the serial lane, the commutative credit merge and the
// abort-aware mempool ordering must all be invisible to every oracle —
// a lane transaction that committed out of serialization order or a
// mis-merged credit shows up as a state-root divergence on replay. Reduced
// seed set: the stock matrices above already cover seeds × scenarios.
func TestScenarioMatrixAdaptive(t *testing.T) {
	seeds := []int64{1, 42}
	for _, scenario := range Scenarios() {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				for _, engine := range core.Engines() {
					cfg, err := Preset(scenario, seed)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Engine = engine
					cfg.Adaptive = true
					cfg.Dir = t.TempDir()
					rep, err := Run(cfg)
					if err != nil {
						t.Fatalf("scenario %s seed %d engine %s adaptive: %v", scenario, seed, engine, err)
					}
					if len(rep.Problems) > 0 {
						t.Fatalf("scenario %s seed %d engine %s adaptive: %d oracle failures (repro: %s)\n%s",
							scenario, seed, engine, len(rep.Problems), rep.ReproLine(), rep.Render())
					}
				}
			}
		})
	}
}

// TestMVDigestDeterminism: with the deterministic MV-STM claim order the
// whole run digest must be reproducible even at several worker threads.
func TestMVDigestDeterminism(t *testing.T) {
	mk := func() string {
		cfg, err := Preset("baseline", 5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Engine = core.EngineMVSTM
		cfg.ProposerThreads = 4
		cfg.Dir = t.TempDir()
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Problems) > 0 {
			t.Fatalf("oracle failures:\n%s", rep.Render())
		}
		return rep.Digest
	}
	if mk() != mk() {
		t.Fatal("mv-stm run digest not deterministic at 4 threads")
	}
}

// TestDigestDeterminism: identical (seed, scenario) pairs must produce
// identical run digests — the property repro lines depend on — and
// different seeds must diverge.
func TestDigestDeterminism(t *testing.T) {
	for _, scenario := range []string{"baseline", "forks", "lossy", "chaos"} {
		a := run(t, scenario, 5)
		b := run(t, scenario, 5)
		if a.Digest != b.Digest {
			t.Fatalf("%s: same seed, different digests:\n%s\n%s", scenario, a.Digest, b.Digest)
		}
		c := run(t, scenario, 6)
		if a.Digest == c.Digest {
			t.Fatalf("%s: different seeds produced identical digests", scenario)
		}
	}
}

// TestMutationSelfCheck: every seeded bug must be caught by its oracle —
// otherwise the oracle suite is vacuous.
func TestMutationSelfCheck(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 9} {
		for _, m := range SelfCheck(Config{Seed: seed}) {
			if !m.Caught {
				t.Errorf("seed %d: mutation %s NOT caught: %s", seed, m.Name, m.Detail)
			}
		}
	}
}

// TestTamperScenarioClassifies: the tamper scenario must actually deliver
// corrupted copies and reject every one with its expected class.
func TestTamperScenarioClassifies(t *testing.T) {
	rep := run(t, "tamper", 3)
	if rep.Stats.TamperedCopies == 0 {
		t.Fatal("tamper scenario produced no tampered copies")
	}
	total := 0
	for _, n := range rep.Stats.Rejections {
		total += n
	}
	if total == 0 {
		t.Fatal("tampered copies were delivered but nothing was rejected")
	}
}

// TestCrashScenarioRestarts: the crash scenario must actually restart v0
// (two incarnations) and still converge.
func TestCrashScenarioRestarts(t *testing.T) {
	rep := run(t, "crash", 4)
	if got := rep.Stats.Incarnations["v0"]; got != 2 {
		t.Fatalf("v0 ran %d incarnations, want 2 (crash-restart)", got)
	}
	for name, n := range rep.Stats.Incarnations {
		if name != "v0" && n != 1 {
			t.Fatalf("%s ran %d incarnations, want 1", name, n)
		}
	}
}

// TestForkScenarioSeesForks: validators must commit more blocks than the
// canonical spine when fork bursts are on (validators see more blocks than
// proposers, paper §3.4).
func TestForkScenarioSeesForks(t *testing.T) {
	rep := run(t, "forks", 2)
	if rep.Stats.ForkBlocks == 0 {
		t.Fatal("forks scenario produced no fork blocks")
	}
	for name, n := range rep.Stats.Committed {
		if n <= rep.Stats.CanonicalBlocks {
			t.Fatalf("%s committed %d blocks, want > %d canonical (fork siblings must validate)",
				name, n, rep.Stats.CanonicalBlocks)
		}
	}
}

// TestForkScenarioReusesSiblings: in every fork burst the siblings carry the
// canonical block's transactions, so each validator's pipeline must take
// some of them from the first sibling it validated instead of executing —
// which puts sibling reuse under every oracle the scenario checks.
func TestForkScenarioReusesSiblings(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rep := run(t, "forks", seed)
		if len(rep.Stats.Reused) == 0 {
			t.Fatalf("seed %d: no validator reported", seed)
		}
		t.Logf("seed %d: transactions taken per validator %v", seed, rep.Stats.Reused)
		for name, n := range rep.Stats.Reused {
			if n == 0 {
				t.Errorf("seed %d: %s took no sibling result (%d blocks committed)", seed, name, rep.Stats.Committed[name])
			}
		}
	}
}

// TestGasLimitScenarioSpills: the squeezed gas limit must force the
// proposer to spill transactions across blocks while conserving them.
func TestGasLimitScenarioSpills(t *testing.T) {
	rep := run(t, "gaslimit", 1)
	if rep.Stats.TxPending == 0 && rep.Stats.TxCommitted == rep.Stats.TxGenerated {
		t.Fatal("gaslimit scenario never spilled a transaction; squeeze is ineffective")
	}
	if rep.Stats.TxGenerated != rep.Stats.TxCommitted+rep.Stats.TxPending+rep.Stats.TxDropped {
		t.Fatalf("tx conservation: generated %d != committed %d + pending %d + dropped %d",
			rep.Stats.TxGenerated, rep.Stats.TxCommitted, rep.Stats.TxPending, rep.Stats.TxDropped)
	}
}

// TestPresetUnknown: unknown scenario names are rejected with the list.
func TestPresetUnknown(t *testing.T) {
	if _, err := Preset("no-such-scenario", 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestExpectedClassesAreSentinels: tamper classes must be the validator's
// exported sentinels, so errors.Is classification stays meaningful.
func TestExpectedClassesAreSentinels(t *testing.T) {
	for _, kind := range tamperCycle {
		cfg, _ := Preset("tamper", 1)
		_ = cfg
		switch kind {
		case tamperPhantomRead, tamperPhantomWrite, tamperProfileGas:
		case tamperStripProfile:
		case tamperStateRoot, tamperGasUsed, tamperTxData:
		default:
			t.Fatalf("tamper kind %s missing from class audit", kind)
		}
	}
	for _, c := range []error{validator.ErrProfileMismatch, validator.ErrBadBlock} {
		if !errors.Is(c, c) {
			t.Fatal("sentinel identity broken")
		}
	}
}
