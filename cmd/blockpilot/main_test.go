package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunForkedRounds runs three rounds in which both proposers are elected
// on each state backend: every node must validate every block it did not
// propose, and all of them must end on the same height.
func TestRunForkedRounds(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-rounds", "3", "-proposers", "2", "-validators", "1", "-fork-prob", "1",
				"-txs", "24", "-threads", "2", "-state-backend", backend}, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "every node converged on height 3") {
				t.Errorf("no converged line:\n%s", out.String())
			}
			if strings.Contains(out.String(), "REJECTED") {
				t.Errorf("a block was rejected:\n%s", out.String())
			}
		})
	}
}
