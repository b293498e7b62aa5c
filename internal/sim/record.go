package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// digest folds the run's *final, scheduling-independent* facts into one
// hex-encoded sha256: the canonical spine, each validator's final block set,
// and every tamper's identity, class and delivery set. Everything hashed is
// a pure function of (seed, scenario): transient ordering effects (which
// copy of a duplicate arrived first) are deliberately excluded, so two runs
// with the same seed produce the same digest even though their goroutine
// interleavings differ.
func (r *runner) digest() string {
	var lines []string
	for _, blk := range r.canonical {
		lines = append(lines, fmt.Sprintf("canonical %d %s", blk.Number(), blk.Hash()))
	}
	for _, v := range r.vals {
		var hashes []string
		for h := uint64(1); h <= uint64(r.cfg.Heights); h++ {
			for _, b := range v.node.Chain.BlocksAt(h) {
				hashes = append(hashes, fmt.Sprintf("%d:%s", h, b.Hash()))
			}
		}
		sort.Strings(hashes)
		lines = append(lines, fmt.Sprintf("val %s committed %s", v.name, strings.Join(hashes, ",")))
		lines = append(lines, fmt.Sprintf("val %s incarnations %d", v.name, len(v.incs)))
	}
	for i, ti := range r.tampers {
		var to []string
		for name := range ti.deliveredTo {
			to = append(to, name)
		}
		sort.Strings(to)
		lines = append(lines, fmt.Sprintf("tamper %d kind=%s base=%s class=%v delivered=%s",
			i, ti.kind, ti.base, ti.class, strings.Join(to, ",")))
	}
	lines = append(lines, fmt.Sprintf("txs generated=%d committed=%d pending=%d dropped=%d",
		r.txGenerated, r.txCommitted, r.prop.Pool.Len(), r.txDropped))

	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])
}

// stats summarizes the run for the report.
func (r *runner) stats() Stats {
	s := Stats{
		CanonicalBlocks: len(r.canonical),
		ForkBlocks:      len(r.genuine) - len(r.canonical),
		TamperedCopies:  len(r.tampers),
		TxGenerated:     r.txGenerated,
		TxCommitted:     r.txCommitted,
		TxPending:       r.prop.Pool.Len(),
		TxDropped:       r.txDropped,
		Committed:       make(map[string]int),
		Rejections:      make(map[string]int),
		Incarnations:    make(map[string]int),
		Reused:          make(map[string]int),
	}
	for _, v := range r.vals {
		n := 0
		for h := uint64(1); h <= uint64(r.cfg.Heights); h++ {
			n += len(v.node.Chain.BlocksAt(h))
		}
		s.Committed[v.name] = n
		s.Incarnations[v.name] = len(v.incs)
		rej := 0
		v.mu.Lock()
		for _, inc := range v.incs {
			for _, rec := range inc.outcomes {
				if rec.err != nil {
					rej++
				}
				s.Reused[v.name] += rec.reused
			}
		}
		v.mu.Unlock()
		s.Rejections[v.name] = rej
	}
	return s
}
