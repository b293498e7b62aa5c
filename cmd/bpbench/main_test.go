package main

import (
	"bytes"
	"strings"
	"testing"

	"blockpilot/internal/bench"
	"blockpilot/internal/core"
	"blockpilot/internal/node"
	"blockpilot/internal/sim"
)

// smallConfig keeps every row to a couple of small blocks.
func smallConfig() runConfig {
	c := runConfig{
		opts:        bench.DefaultOptions(),
		maxPipeline: 2,
		sim: sim.Config{
			Scenario: "baseline", Seed: 1, Engine: core.EngineOCCWSI,
			StateBackend: node.BackendMem,
		},
		mutants: true,
	}
	c.opts.Blocks = 2
	c.opts.Repeats = 1
	c.opts.Threads = []int{1, 4}
	c.opts.Workload.NumAccounts = 400
	c.opts.Workload.TxPerBlock = 60
	return c
}

// TestEveryExperimentRuns dispatches each table row by name and checks it
// renders something; the names must be unique since they are the -exp
// vocabulary.
func TestEveryExperimentRuns(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.name] || e.name == "all" {
			t.Fatalf("experiment name %q is duplicated or reserved", e.name)
		}
		seen[e.name] = true
		t.Run(e.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(e.name, smallConfig(), &out); err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(out.String()) == "" {
				t.Fatal("empty render")
			}
		})
	}
}

func TestUnknownExperimentErrors(t *testing.T) {
	var out bytes.Buffer
	err := run("no-such-exp", smallConfig(), &out)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), experimentNames()) {
		t.Fatalf("error does not list the experiments: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("unknown experiment produced output: %q", out.String())
	}
}
