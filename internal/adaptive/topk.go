package adaptive

import (
	"cmp"
	"slices"
)

// TopK is a space-saving heavy-hitter sketch (Metwally, Agrawal, El Abbadi,
// "Efficient computation of frequent and top-k elements in data streams",
// ICDT 2005): it tracks at most k candidate keys; a new key evicts the
// current minimum and inherits its count as over-estimation error. For any
// key whose true frequency exceeds N/k the sketch is guaranteed to hold it,
// and Count − Err is a lower bound on the true frequency. When the distinct
// key population is ≤ k the counts are exact (Err = 0). Not safe for
// concurrent use: the Controller serializes every call under its mutex.
//
// Both orders the sketch exposes — which candidate is evicted, and the rank
// order Top reports — are total: every candidate is stamped with the sequence
// number at which it entered, and ties on count fall back to it, never to
// map iteration order. The same observation stream therefore always yields
// the same sketch and the same Top, so the hot set cut off at rank n does not
// vary run to run.
type TopK[K comparable] struct {
	k       int
	seq     uint64 // candidates admitted so far
	entries map[K]*topkEntry
}

type topkEntry struct {
	count uint64
	err   uint64
	seq   uint64 // admission order: smaller = older
}

// Counted is one reported heavy hitter. Count overestimates the true
// frequency by at most Err.
type Counted[K comparable] struct {
	Key   K
	Count uint64
	Err   uint64
}

// NewTopK returns a sketch holding up to k candidates (k ≥ 1).
func NewTopK[K comparable](k int) *TopK[K] {
	if k < 1 {
		k = 1
	}
	return &TopK[K]{k: k, entries: make(map[K]*topkEntry, k+1)}
}

// Observe counts one occurrence of key.
func (t *TopK[K]) Observe(key K) {
	if e, ok := t.entries[key]; ok {
		e.count++
		return
	}
	t.seq++
	if len(t.entries) < t.k {
		t.entries[key] = &topkEntry{count: 1, seq: t.seq}
		return
	}
	// Evict the minimum-count candidate — the youngest of them on a tie, so
	// an established key outlives a one-block blip — and let the newcomer
	// inherit its count (the space-saving replacement rule).
	var minKey K
	var minE *topkEntry
	for k2, e := range t.entries {
		if minE == nil || e.count < minE.count || (e.count == minE.count && e.seq > minE.seq) {
			minKey, minE = k2, e
		}
	}
	delete(t.entries, minKey)
	t.entries[key] = &topkEntry{count: minE.count + 1, err: minE.count, seq: t.seq}
}

// Top returns up to n heavy hitters (n ≤ 0 = all): highest count first, then
// smallest error bound, then oldest.
func (t *TopK[K]) Top(n int) []Counted[K] {
	out := make([]Counted[K], 0, len(t.entries))
	for k2, e := range t.entries {
		out = append(out, Counted[K]{Key: k2, Count: e.count, Err: e.err})
	}
	slices.SortFunc(out, func(a, b Counted[K]) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Err, b.Err),
			cmp.Compare(t.entries[a.Key].seq, t.entries[b.Key].seq))
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Decay scales every candidate's count (and error bound) by factor in
// [0, 1), evicting candidates whose count reaches zero. It turns the
// cumulative sketch into an exponentially-windowed one: calling
// Decay(f) once per block makes a key's count ≈ Σ aborts(block −i)·fⁱ, so
// recent contention dominates and a key that has gone cold drains out of
// the sketch within log₍1/f₎(count) blocks instead of squatting forever
// (the adaptive controller's view, ISSUE 9). Factor values outside [0, 1)
// are clamped: ≥ 1 decays nothing, < 0 resets the sketch.
func (t *TopK[K]) Decay(factor float64) {
	if factor >= 1 {
		return
	}
	if factor < 0 {
		factor = 0
	}
	for k, e := range t.entries {
		e.count = uint64(float64(e.count) * factor)
		e.err = uint64(float64(e.err) * factor)
		if e.count == 0 {
			delete(t.entries, k)
		}
	}
}
