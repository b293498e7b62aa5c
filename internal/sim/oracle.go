package sim

import (
	"errors"
	"fmt"
	"sort"

	"blockpilot/internal/chain"
	"blockpilot/internal/types"
)

// matchesClass reports whether err belongs to the expected rejection class.
func matchesClass(err, class error) bool { return errors.Is(err, class) }

// sortedGenuine returns every honest block ordered by (height, hash).
func (r *runner) sortedGenuine() []*types.Block {
	out := make([]*types.Block, 0, len(r.genuine))
	for _, b := range r.genuine {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Number() != out[j].Number() {
			return out[i].Number() < out[j].Number()
		}
		return lessHash(out[i].Hash(), out[j].Hash())
	})
	return out
}

// checkSerializability (oracle 1) re-executes every genuine block serially
// in sealed order against its parent's reference state, captured at seal
// time since the proposer's chain keeps only a window of states — the
// Geth-baseline semantics every parallel path must reproduce bit-for-bit. It
// fills serialRoots for the parity oracle.
func (r *runner) checkSerializability(serialRoots map[types.Hash]types.Hash) []string {
	var problems []string
	for _, b := range r.sortedGenuine() {
		parent := r.prop.Chain.Block(b.Header.ParentHash)
		pState := r.parents[b.Hash()]
		if parent == nil || pState == nil {
			problems = append(problems, fmt.Sprintf("serializability: block %d %s has no reference parent", b.Number(), b.Hash()))
			continue
		}
		res, err := chain.VerifyBlockSerial(pState, &parent.Header, b, r.params)
		if err != nil {
			problems = append(problems, fmt.Sprintf("serializability: block %d %s fails serial re-execution: %v", b.Number(), b.Hash(), err))
			continue
		}
		serialRoots[b.Hash()] = res.State.Root()
	}
	return problems
}

// checkParity (oracle 2) requires, for every committed outcome, that the
// parallel validator's committed root equals the header root equals the
// serial root; and for every proposed block that the proposer's parallel
// (OCC-WSI) root equals the serial root.
func (r *runner) checkParity(serialRoots map[types.Hash]types.Hash) []string {
	var problems []string
	for _, b := range r.sortedGenuine() {
		if sr, ok := serialRoots[b.Hash()]; ok && sr != b.Header.StateRoot {
			problems = append(problems, fmt.Sprintf("parity: block %d %s header root %s != serial root %s", b.Number(), b.Hash(), b.Header.StateRoot, sr))
		}
	}
	for _, v := range r.vals {
		v.mu.Lock()
		for incID, inc := range v.incs {
			for _, rec := range inc.outcomes {
				if rec.err != nil {
					continue
				}
				h := rec.block.Hash()
				if rec.root != rec.block.Header.StateRoot {
					problems = append(problems, fmt.Sprintf("parity: %s inc%d block %d %s validator root %s != header %s", v.name, incID, rec.block.Number(), h, rec.root, rec.block.Header.StateRoot))
				}
				sr, ok := serialRoots[h]
				if !ok {
					continue // not genuine: the corruption oracle reports it
				}
				if rec.root != sr {
					problems = append(problems, fmt.Sprintf("parity: %s inc%d block %d %s validator root %s != serial root %s", v.name, incID, rec.block.Number(), h, rec.root, sr))
				}
			}
		}
		v.mu.Unlock()
	}
	return problems
}

// checkPipelineSafety (oracle 3): within each incarnation's outcome stream
// a block commits only after its parent committed in that same stream (the
// pipeline sends an outcome before releasing the block's children, so the
// stream order is the commitment order); each validator's final canonical
// spine carries exactly the canonical transactions, once each; and the
// mempool conserves transactions across requeues.
func (r *runner) checkPipelineSafety() []string {
	var problems []string
	genesisHash := r.prop.Chain.Genesis().Hash()
	for _, v := range r.vals {
		v.mu.Lock()
		for incID, inc := range v.incs {
			committed := map[types.Hash]bool{genesisHash: true}
			for i, rec := range inc.outcomes {
				if rec.err != nil {
					continue
				}
				if !committed[rec.block.Header.ParentHash] {
					problems = append(problems, fmt.Sprintf("pipeline: %s inc%d outcome %d commits block %d %s before its parent %s", v.name, incID, i, rec.block.Number(), rec.block.Hash(), rec.block.Header.ParentHash))
				}
				committed[rec.block.Hash()] = true
			}
		}
		v.mu.Unlock()

		// Final spine: one block per height, carrying that height's
		// canonical transactions exactly once.
		seen := make(map[types.Hash]int)
		for n := v.node.Chain.Head(); n != nil && n.Number() > 0; n = v.node.Chain.Block(n.Header.ParentHash) {
			h := n.Number()
			if h > uint64(len(r.canonical)) {
				problems = append(problems, fmt.Sprintf("pipeline: %s spine has block at impossible height %d", v.name, h))
				break
			}
			want := r.canonical[h-1].Txs
			if len(n.Txs) != len(want) {
				problems = append(problems, fmt.Sprintf("pipeline: %s spine height %d carries %d txs, canonical has %d", v.name, h, len(n.Txs), len(want)))
			} else {
				for i := range want {
					if n.Txs[i].Hash() != want[i].Hash() {
						problems = append(problems, fmt.Sprintf("pipeline: %s spine height %d tx %d differs from canonical", v.name, h, i))
						break
					}
				}
			}
			for _, tx := range n.Txs {
				seen[tx.Hash()]++
			}
		}
		for txh, count := range seen {
			if count > 1 {
				problems = append(problems, fmt.Sprintf("pipeline: %s spine commits tx %s %d times", v.name, txh, count))
			}
		}
	}

	// Mempool conservation: every generated transaction is either packed
	// into exactly one canonical block or still pending — never silently
	// dropped (the workload is all-valid, so Dropped must stay zero).
	if r.txDropped != 0 {
		problems = append(problems, fmt.Sprintf("pipeline: proposer dropped %d valid txs", r.txDropped))
	}
	if r.txGenerated != r.txCommitted+r.prop.Pool.Len()+r.txDropped {
		problems = append(problems, fmt.Sprintf("pipeline: tx conservation broken: generated %d != committed %d + pending %d + dropped %d", r.txGenerated, r.txCommitted, r.prop.Pool.Len(), r.txDropped))
	}
	return problems
}

// checkCorruption (oracle 4): every tampered copy delivered to a validator
// whose parent eventually validated must end with a rejection of the
// expected class, and no tampered copy may ever commit.
func (r *runner) checkCorruption() []string {
	var problems []string
	for idx, ti := range r.tampers {
		for _, v := range r.vals {
			if !ti.deliveredTo[v.name] {
				continue
			}
			recs := v.outcomesFor(ti.instance)
			if len(recs) == 0 {
				problems = append(problems, fmt.Sprintf("corruption: tamper %d (%s of %s) delivered to %s but produced no outcome", idx, ti.kind, ti.base, v.name))
				continue
			}
			for _, rec := range recs {
				if rec.err == nil {
					problems = append(problems, fmt.Sprintf("corruption: tamper %d (%s of %s) COMMITTED on %s", idx, ti.kind, ti.base, v.name))
				}
			}
			parentAvailable := v.node.Chain.Block(ti.instance.Header.ParentHash) != nil
			if parentAvailable && !classified(recs, ti) {
				problems = append(problems, fmt.Sprintf("corruption: tamper %d (%s of %s) on %s never rejected as %v (last err: %v)", idx, ti.kind, ti.base, v.name, ti.class, recs[len(recs)-1].err))
			}
		}
	}
	return problems
}

// checkConvergence: after the anti-entropy passes every validator holds the
// full canonical spine and sits at the canonical height.
func (r *runner) checkConvergence() []string {
	var problems []string
	for _, v := range r.vals {
		for _, blk := range r.canonical {
			if v.node.Chain.Block(blk.Hash()) == nil {
				problems = append(problems, fmt.Sprintf("convergence: %s never committed canonical block %d %s", v.name, blk.Number(), blk.Hash()))
			}
		}
		if got := v.node.Chain.Height(); got != uint64(r.cfg.Heights) {
			problems = append(problems, fmt.Sprintf("convergence: %s head height %d, want %d", v.name, got, r.cfg.Heights))
		}
	}
	return problems
}
