package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"blockpilot/internal/trace"
	"blockpilot/internal/types"
)

// checkTracing is the tracing oracle: every block a validator committed must
// carry a complete, gap-free span chain (queue → prepare → execute → verify
// → commit) in the run's trace collector, whatever faults the scenario threw
// at it — duplicate deliveries, crash replays and anti-entropy resubmissions
// all funnel through the same instrumented pipeline. Canonical blocks must
// additionally carry the proposer's seal span (fork siblings are built with
// the serial reference executor and never sealed by the OCC proposer;
// transfer spans are likewise optional, since anti-entropy resubmits bypass
// the network fabric).
func (r *runner) checkTracing() []string {
	var problems []string
	isCanonical := make(map[types.Hash]bool, len(r.canonical))
	for _, blk := range r.canonical {
		isCanonical[blk.Hash()] = true
	}
	for _, v := range r.vals {
		for h := uint64(1); h <= uint64(r.cfg.Heights); h++ {
			for _, b := range v.node.Chain.BlocksAt(h) {
				bh := b.Hash()
				p, ok := r.tracer.PathFor(bh, v.name)
				if !ok {
					problems = append(problems,
						fmt.Sprintf("tracing: %s committed block %d %s without a commit span", v.name, h, bh))
					continue
				}
				if !p.Complete {
					problems = append(problems,
						fmt.Sprintf("tracing: %s block %d %s span chain has gaps: missing %s",
							v.name, h, bh, strings.Join(p.Missing, ",")))
				}
				if isCanonical[bh] && !r.hasStage(bh, trace.StageSeal) {
					problems = append(problems,
						fmt.Sprintf("tracing: canonical block %d %s has no proposer seal span", h, bh))
				}
			}
		}
	}
	return problems
}

// hasStage reports whether any buffered span for the block has the stage.
func (r *runner) hasStage(block types.Hash, stage trace.Stage) bool {
	for _, sp := range r.tracer.SpansFor(block) {
		if sp.Stage == stage {
			return true
		}
	}
	return false
}

// traceDigest fingerprints the run's span coverage the same way digest()
// fingerprints its outcomes: only final, scheduling-independent facts are
// hashed — per (validator, committed block): chain completeness and seal
// presence. Span counts, ids and timings are deliberately excluded (a
// duplicate delivery re-validates and doubles the span count without
// changing what the run proved).
func (r *runner) traceDigest() string {
	var lines []string
	for _, v := range r.vals {
		for h := uint64(1); h <= uint64(r.cfg.Heights); h++ {
			for _, b := range v.node.Chain.BlocksAt(h) {
				bh := b.Hash()
				complete := false
				if p, ok := r.tracer.PathFor(bh, v.name); ok {
					complete = p.Complete
				}
				lines = append(lines, fmt.Sprintf("trace %s %d %s complete=%t seal=%t",
					v.name, h, bh, complete, r.hasStage(bh, trace.StageSeal)))
			}
		}
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])
}
