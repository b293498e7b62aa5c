package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"blockpilot/internal/workload"
)

// shrunk returns the same workload over a small genesis (the tier-1 smoke
// test): identical code paths, seconds instead of minutes.
func (s spec) shrunk() spec {
	mix := s.mix
	s.mix = func() workload.Config {
		cfg := mix()
		if cfg.NumAccounts > 2_000 {
			cfg.NumAccounts = 2_000
			cfg.TokenHolders = 200
		}
		cfg.NumTokens = 6
		cfg.TxPerBlock = 32
		cfg.SpinMin, cfg.SpinMax = min(cfg.SpinMin, 50), min(cfg.SpinMax, 200)
		return cfg
	}
	if s.disk {
		s.cacheNodes = 1_024
	}
	return s
}

// testOptions writes under out/ (benchmark/out when run by `go test`).
func testOptions(seed int64) options {
	return options{seed: seed, threads: 2, outDir: "out"}
}

// listFiles returns every file under the package directory except out/.
func listFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == "out" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSmoke runs every workload for 3 rounds on a shrunken genesis, timed
// and traced, and checks that every catalogued metric comes back present,
// finite and with its unit, that every output check passed, and that out/
// is the only place files were written.
func TestSmoke(t *testing.T) {
	before := listFiles(t)
	env := envBlock{Seed: 1, Threads: 2, Rounds: 3, Warmup: warmupRounds}
	for _, s := range workloads {
		s := s.shrunk()
		for _, pass := range []struct {
			name string
			run  func(spec, options, envBlock) (*runRecord, error)
			defs []metricDef
		}{
			{"timed", runTimed, endToEnd},
			// The traced pass divides the rounds by traceDivisor.
			{"traced", func(s spec, o options, e envBlock) (*runRecord, error) {
				e.Rounds *= traceDivisor
				return runTraced(s, o, e)
			}, perLayer},
		} {
			rec, err := pass.run(s, testOptions(1), env)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.name, pass.name, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s/%s: correct=%v failed=%d attempted=%d", s.name, pass.name,
					rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
			}
			if len(rec.Result.Metrics) != len(pass.defs) {
				t.Errorf("%s/%s: %d metrics, catalogue has %d", s.name, pass.name, len(rec.Result.Metrics), len(pass.defs))
			}
			for _, def := range pass.defs {
				m, ok := rec.Result.Metrics[def.name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != def.unit || m.Unit == "" {
					t.Errorf("%s/%s: metric %s = %+v (present %v), want finite with unit %q", s.name, pass.name, def.name, m, ok, def.unit)
				}
			}
			if pass.name == "traced" {
				var sum float64
				for _, l := range cpuLayers {
					sum += rec.Result.Metrics["cpu_share."+l].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: cpu_share.* sum to %v, want 1 ± 0.01", s.name, sum)
				}
				for _, f := range []string{s.name + ".spans.json", s.name + ".cpu.pb.gz"} {
					if _, err := os.Stat(filepath.Join("out", f)); err != nil {
						t.Errorf("%s: %v", s.name, err)
					}
				}
			}
		}
	}
	if after := listFiles(t); !reflect.DeepEqual(before, after) {
		t.Errorf("files written outside out/:\nbefore %v\nafter  %v", before, after)
	}
	if left, _ := filepath.Glob(filepath.Join("out", "state-*")); len(left) > 0 {
		t.Errorf("store scratch directories left behind: %v", left)
	}
}

// TestInputDeterminism: the seed alone decides the inputs.
func TestInputDeterminism(t *testing.T) {
	s, _ := findSpec("mainnet")
	s = s.shrunk()
	digest := func(seed int64) string {
		d, err := execute(s, testOptions(seed), 3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d.failed() != 0 {
			t.Fatalf("seed %d: %d failed operations", seed, d.failed())
		}
		return d.inputDigest
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Errorf("same seed, different input digests: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("different seeds, same input digest %s", a)
	}
}

// TestProgramSeesOnlyGeneratedInputs: workload parameters live in this
// package alone, so nothing under internal/ or cmd/ may import it. The
// program receives the generated genesis and transactions, nothing else.
func TestProgramSeesOnlyGeneratedInputs(t *testing.T) {
	for _, root := range []string{"../internal", "../cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == "blockpilot/benchmark" {
					t.Errorf("%s imports the benchmark package", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the catalogue", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: %+v differs from catalogue %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s[%d] %s: bound differs from catalogue (%v)", kind, i, g.Name, w.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "round_ms_p50", better: "lower", bound: 0.10}
	higher := metricDef{name: "tx_per_s", better: "higher", bound: 0.10}
	base := []float64{100, 101, 99, 100.5}
	for _, tc := range []struct {
		name  string
		def   metricDef
		other []float64
		want  string
	}{
		{"same", lower, []float64{100, 102, 99, 101}, "ok"},
		{"slower within bound", lower, []float64{108, 109, 107, 108}, "ok"},
		{"slower beyond bound", lower, []float64{115, 116, 114, 115}, "regressed"},
		{"noisy", lower, []float64{80, 130, 100, 140}, "unresolved"},
		{"noisy but every run better", lower, []float64{50, 80, 60, 90}, "ok"},
		{"throughput drop", higher, []float64{85, 86, 84, 85}, "regressed"},
		{"throughput gain", higher, []float64{120, 121, 119, 120}, "ok"},
	} {
		if got := verdict(tc.def, base, tc.other); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	rec := func(seed int64, digest string, procs int) runRecord {
		return runRecord{Workload: "mainnet", InputDigest: digest, Env: envBlock{Seed: seed, GOMAXPROCS: procs, Threads: 2}}
	}
	base := []runRecord{rec(1, "aa", 2), rec(2, "bb", 2)}
	if inputsOf(base) != inputsOf([]runRecord{rec(2, "bb", 2), rec(1, "aa", 2)}) {
		t.Error("run order must not matter")
	}
	for name, other := range map[string][]runRecord{
		"digest":     {rec(1, "aa", 2), rec(2, "cc", 2)},
		"seed":       {rec(1, "aa", 2), rec(3, "bb", 2)},
		"gomaxprocs": {rec(1, "aa", 1), rec(2, "bb", 1)},
	} {
		if inputsOf(base) == inputsOf(other) {
			t.Errorf("sets differing in %s compare as equal", name)
		}
	}
}
