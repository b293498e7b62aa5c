// Parallel root hashing. Hashing a trie is a bottom-up reduction over the
// node DAG, and the reference every node keeps (its refCache) makes the
// reduction idempotent and safe to run concurrently: two goroutines encoding
// the same shared subtree compute the same bytes, and the one that loses the
// compare-and-swap keeps its copy to itself. HashParallel exploits that by
// fanning the root branch's children (recursively, to a small depth) across
// worker goroutines, warming the caches, and then letting the ordinary
// serial Hash assemble the root from fully cached children — so the result
// is bit-identical to Hash by construction.
package trie

import (
	"sync"
	"sync/atomic"
)

// parallelHashDepth bounds the fan-out recursion: depth 2 under the root
// yields up to 256 independent subtree tasks, plenty for any realistic
// worker count while keeping task bookkeeping negligible.
const parallelHashDepth = 2

// parallelHashMinTasks is the fan-out floor below which the goroutine
// overhead cannot pay for itself and HashParallel degrades to Hash.
const parallelHashMinTasks = 4

// HashParallel returns the trie's root hash, computing the subtree hashes
// with up to `workers` goroutines. The result is bit-identical to Hash():
// the only shared mutable state is the per-node encoding cache, which both
// paths fill with the same deterministic bytes. workers <= 1 (or a trie too
// small to fan out) falls back to the serial Hash.
func (t *Trie) HashParallel(workers int) [32]byte {
	if workers <= 1 || t.root == nil {
		return t.Hash()
	}
	if _, ok := t.root.(*hashNode); ok {
		return t.Hash() // persisted root: O(1), nothing to fan out
	}
	fp := frontiers.Get().(*[]node)
	defer func() {
		clear(*fp)
		*fp = (*fp)[:0]
		frontiers.Put(fp)
	}()
	gatherFrontier(t.root, 0, fp)
	frontier := *fp
	if len(frontier) < parallelHashMinTasks {
		return t.Hash()
	}
	if workers > len(frontier) {
		workers = len(frontier)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			buf := encScratch.Get().(*[]byte)
			defer encScratch.Put(buf)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
				*buf = appendRef((*buf)[:0], frontier[i]) // fills the subtree's references
			}
		}()
	}
	wg.Wait()
	return t.Hash()
}

// frontiers recycles HashParallel's task lists: one per call would be grown
// from nil every block.
var frontiers = sync.Pool{New: func() any { return new([]node) }}

// gatherFrontier collects the roots of independent subtrees at most
// parallelHashDepth branch levels below n. Extension nodes are transparent
// (they add no fan-out); the frontier never contains nil children.
func gatherFrontier(n node, depth int, out *[]node) {
	switch nd := n.(type) {
	case *extNode:
		gatherFrontier(nd.child, depth, out)
	case *branchNode:
		if depth >= parallelHashDepth {
			*out = append(*out, nd)
			return
		}
		for _, c := range nd.children {
			if c != nil {
				gatherFrontier(c, depth+1, out)
			}
		}
	case *leafNode:
		// Leaves are cheap; hash them with the task that owns them only if
		// they surfaced at the frontier directly.
		*out = append(*out, nd)
	case *hashNode:
		// Persisted boundary: its reference is its hash, O(1) — nothing to
		// warm underneath without resolving it, which hashing never needs.
	}
}
