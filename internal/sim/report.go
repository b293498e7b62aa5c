package sim

import (
	"fmt"
	"sort"
	"strings"

	"blockpilot/internal/health"
	"blockpilot/internal/node"
	"blockpilot/internal/types"
)

// Stats summarizes one run.
type Stats struct {
	CanonicalBlocks int
	ForkBlocks      int
	TamperedCopies  int
	TxGenerated     int
	TxCommitted     int
	TxPending       int
	TxDropped       int
	Committed       map[string]int // validator → blocks in its final chain
	Rejections      map[string]int // validator → rejection outcomes observed
	Incarnations    map[string]int // validator → lifetimes (1 + crash-restarts)
	// Reused counts, per validator, the transactions its accepted blocks
	// took from a same-parent sibling instead of executing. It depends on
	// how the sibling validations interleave, so no digest covers it.
	Reused map[string]int
}

// Report is the outcome of one simulation run.
type Report struct {
	Cfg         Config
	Digest      string // scheduling-independent run fingerprint
	TraceDigest string // span-coverage fingerprint (see traceDigest)
	Problems    []string
	Mutations   []MutationCheck
	Stats       Stats

	// Health recorder results (cfg.Health): quiesced samples taken and the
	// watchdog incidents. Excluded from the run digest — incident bundle
	// paths and wall-clock-free fake timestamps are still asserted by the
	// health oracle.
	HealthSamples   int
	HealthIncidents []health.Incident
	HealthDropped   uint64
}

// OK reports whether every oracle held and (when run) every seeded bug in
// the mutation self-check was caught.
func (r *Report) OK() bool {
	if len(r.Problems) > 0 {
		return false
	}
	for _, m := range r.Mutations {
		if !m.Caught {
			return false
		}
	}
	return true
}

// ReproLine is the command that replays this exact run.
func (r *Report) ReproLine() string {
	line := fmt.Sprintf("bpbench -exp sim -scenario %s -seed %d -engine %s", r.Cfg.Scenario, r.Cfg.Seed, r.Cfg.Engine)
	if r.Cfg.Adaptive {
		line += " -adaptive"
	}
	if p, err := Preset(r.Cfg.Scenario, r.Cfg.Seed); err == nil && p.Heights != r.Cfg.Heights {
		line += fmt.Sprintf(" -sim-heights %d", r.Cfg.Heights)
	}
	if r.Cfg.StateBackend != "" && r.Cfg.StateBackend != node.BackendMem {
		line += " -state-backend " + r.Cfg.StateBackend
	}
	return line
}

// Render formats the report for the CLI.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim scenario=%s seed=%d engine=%s adaptive=%v state=%s heights=%d validators=%d\n",
		r.Cfg.Scenario, r.Cfg.Seed, r.Cfg.Engine, r.Cfg.Adaptive, r.Cfg.StateBackend, r.Cfg.Heights, r.Cfg.Validators)
	fmt.Fprintf(&b, "  blocks: %d canonical, %d fork, %d tampered copies\n",
		r.Stats.CanonicalBlocks, r.Stats.ForkBlocks, r.Stats.TamperedCopies)
	fmt.Fprintf(&b, "  txs: %d generated, %d committed, %d pending, %d dropped\n",
		r.Stats.TxGenerated, r.Stats.TxCommitted, r.Stats.TxPending, r.Stats.TxDropped)
	names := make([]string, 0, len(r.Stats.Committed))
	for name := range r.Stats.Committed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %s: %d blocks committed, %d rejections, %d incarnation(s)\n",
			name, r.Stats.Committed[name], r.Stats.Rejections[name], r.Stats.Incarnations[name])
	}
	fmt.Fprintf(&b, "  digest: %s\n", r.Digest)
	fmt.Fprintf(&b, "  trace digest: %s\n", r.TraceDigest)
	if r.Cfg.Health {
		fmt.Fprintf(&b, "  health: %d samples, %d incident(s)\n", r.HealthSamples, len(r.HealthIncidents))
		for _, inc := range r.HealthIncidents {
			fmt.Fprintf(&b, "    incident #%d %s @sample %d: %s\n", inc.Seq, inc.Rule, inc.SampleSeq, inc.Detail)
		}
	}
	for _, m := range r.Mutations {
		status := "caught"
		if !m.Caught {
			status = "MISSED"
		}
		fmt.Fprintf(&b, "  mutation %-20s %s — %s\n", m.Name, status, m.Detail)
	}
	if len(r.Problems) == 0 {
		fmt.Fprintf(&b, "  oracles: all held\n")
	} else {
		fmt.Fprintf(&b, "  ORACLE FAILURES (%d):\n", len(r.Problems))
		for _, p := range r.Problems {
			fmt.Fprintf(&b, "    - %s\n", p)
		}
		fmt.Fprintf(&b, "  repro: %s\n", r.ReproLine())
	}
	return b.String()
}

// report assembles the Report after drive() finished: all five oracles,
// the convergence check, and the run digests.
func (r *runner) report() *Report {
	rep := &Report{Cfg: r.cfg, Stats: r.stats()}
	serialRoots := make(map[types.Hash]types.Hash, len(r.genuine))
	rep.Problems = append(rep.Problems, r.checkSerializability(serialRoots)...)
	rep.Problems = append(rep.Problems, r.checkParity(serialRoots)...)
	rep.Problems = append(rep.Problems, r.checkPipelineSafety()...)
	rep.Problems = append(rep.Problems, r.checkCorruption()...)
	rep.Problems = append(rep.Problems, r.checkConvergence()...)
	rep.Problems = append(rep.Problems, r.checkTracing()...)
	rep.Problems = append(rep.Problems, r.checkHealth()...)
	if r.health != nil {
		rep.HealthSamples = len(r.health.Series())
		rep.HealthIncidents, rep.HealthDropped = r.health.Incidents()
	}
	rep.Digest = r.digest()
	rep.TraceDigest = r.traceDigest()
	return rep
}
