package adaptive

import "testing"

func TestTopKExactWhenSmall(t *testing.T) {
	s := NewTopK[string](8)
	for i := 0; i < 5; i++ {
		s.Observe("a")
	}
	for i := 0; i < 3; i++ {
		s.Observe("b")
	}
	s.Observe("c")

	if len(s.entries) != 3 {
		t.Fatalf("Len = %d, want 3", len(s.entries))
	}
	top := s.Top(0)
	if len(top) != 3 {
		t.Fatalf("Top(0) returned %d entries, want 3", len(top))
	}
	want := []struct {
		key   string
		count uint64
	}{{"a", 5}, {"b", 3}, {"c", 1}}
	for i, w := range want {
		if top[i].Key != w.key || top[i].Count != w.count {
			t.Fatalf("top[%d] = %v/%d, want %s/%d", i, top[i].Key, top[i].Count, w.key, w.count)
		}
		if top[i].Err != 0 {
			t.Fatalf("distinct ≤ k must be exact, got Err=%d for %s", top[i].Err, top[i].Key)
		}
	}
	if got := s.Top(2); len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
		t.Fatalf("Top(2) = %v", got)
	}
}

// TestTopKEviction checks the space-saving replacement rule: a newcomer
// evicts the minimum candidate and inherits its count as error bound.
func TestTopKEviction(t *testing.T) {
	s := NewTopK[string](2)
	s.Observe("a")
	s.Observe("a")
	s.Observe("a")
	s.Observe("b")
	s.Observe("c") // evicts b (count 1): c gets count=2, err=1

	if len(s.entries) != 2 {
		t.Fatalf("Len = %d, want 2", len(s.entries))
	}
	top := s.Top(0)
	if top[0].Key != "a" || top[0].Count != 3 {
		t.Fatalf("top[0] = %v/%d, want a/3", top[0].Key, top[0].Count)
	}
	if top[1].Key != "c" || top[1].Count != 2 || top[1].Err != 1 {
		t.Fatalf("top[1] = %v count=%d err=%d, want c/2/1", top[1].Key, top[1].Count, top[1].Err)
	}
	// Count − Err is a valid lower bound on the true frequency (1 for c).
	if lower := top[1].Count - top[1].Err; lower != 1 {
		t.Fatalf("lower bound = %d, want 1", lower)
	}
}

// TestTopKHeavyHitterRetained checks the sketch guarantee: any key whose true
// frequency exceeds N/k survives arbitrary interleaving with a long tail.
func TestTopKHeavyHitterRetained(t *testing.T) {
	const k = 10
	s := NewTopK[int](k)
	const hot = -1
	trueHot := 0
	n := 0
	// 5000 observations: every 2nd is the hot key, the rest cycle through
	// 500 distinct tail keys (each far below N/k).
	for i := 0; i < 5000; i++ {
		if i%2 == 0 {
			s.Observe(hot)
			trueHot++
		} else {
			s.Observe(i % 500)
		}
		n++
	}
	top := s.Top(1)
	if len(top) == 0 || top[0].Key != hot {
		t.Fatalf("heavy hitter (freq %d of %d) not at rank 1: %+v", trueHot, n, top)
	}
	if top[0].Count < uint64(trueHot) {
		t.Fatalf("space-saving never undercounts: Count=%d < true %d", top[0].Count, trueHot)
	}
	if lower := top[0].Count - top[0].Err; lower > uint64(trueHot) {
		t.Fatalf("lower bound %d exceeds true frequency %d", lower, trueHot)
	}
}

// TestTopKDecayMonotonic: Decay scales every count down without reordering —
// a hotter key stays at least as hot as a colder one through any number of
// decay steps — and counts drained to zero leave the sketch entirely.
func TestTopKDecayMonotonic(t *testing.T) {
	s := NewTopK[string](8)
	for i := 0; i < 16; i++ {
		s.Observe("hot")
	}
	for i := 0; i < 4; i++ {
		s.Observe("warm")
	}
	s.Observe("cold")

	prevHot, prevWarm := uint64(16), uint64(4)
	for step := 0; step < 6; step++ {
		s.Decay(0.5)
		counts := map[string]uint64{}
		for _, c := range s.Top(0) {
			counts[c.Key] = c.Count
		}
		if counts["hot"] > prevHot || counts["warm"] > prevWarm {
			t.Fatalf("step %d: decay increased a count: %v", step, counts)
		}
		if counts["hot"] < counts["warm"] {
			t.Fatalf("step %d: decay reordered hot (%d) below warm (%d)", step, counts["hot"], counts["warm"])
		}
		prevHot, prevWarm = counts["hot"], counts["warm"]
	}
	// 16 · 0.5⁶ < 1: everything has drained.
	if len(s.entries) != 0 {
		t.Fatalf("after 6 half-decays the sketch still holds %d entries: %v", len(s.entries), s.Top(0))
	}
}

// TestTopKDecayEvictionInteraction: a decayed survivor must still follow the
// space-saving replacement rule — a newcomer evicts the *post-decay* minimum
// and inherits its (decayed) count as error, so the sketch favors recency.
func TestTopKDecayEvictionInteraction(t *testing.T) {
	s := NewTopK[string](2)
	for i := 0; i < 8; i++ {
		s.Observe("old-hot")
	}
	for i := 0; i < 6; i++ {
		s.Observe("old-warm")
	}
	s.Decay(0.25) // old-hot → 2, old-warm → 1
	s.Observe("new")
	if len(s.entries) != 2 {
		t.Fatalf("Len = %d, want 2", len(s.entries))
	}
	top := s.Top(0)
	if top[0].Key != "old-hot" || top[0].Count != 2 {
		t.Fatalf("top[0] = %s/%d, want old-hot/2", top[0].Key, top[0].Count)
	}
	// new evicted old-warm (decayed count 1) and inherited it as err.
	if top[1].Key != "new" || top[1].Count != 2 || top[1].Err != 1 {
		t.Fatalf("top[1] = %s count=%d err=%d, want new/2/1", top[1].Key, top[1].Count, top[1].Err)
	}
}

// TestTopKDecayClampAndReset: factor ≥ 1 is a no-op, factor < 0 resets the
// sketch.
func TestTopKDecayClampAndReset(t *testing.T) {
	s := NewTopK[string](4)
	s.Observe("a")
	s.Observe("a")
	s.Decay(1.5)
	if top := s.Top(1); len(top) != 1 || top[0].Count != 2 {
		t.Fatalf("Decay(1.5) must be a no-op, got %v", top)
	}
	s.Decay(-1)
	if len(s.entries) != 0 {
		t.Fatalf("Decay(-1) must clear the sketch, Len = %d", len(s.entries))
	}
}

func TestTopKMinCapacity(t *testing.T) {
	s := NewTopK[string](0) // clamped to 1
	s.Observe("a")
	s.Observe("b")
	if len(s.entries) != 1 {
		t.Fatalf("Len = %d, want 1 (k clamped to 1)", len(s.entries))
	}
}

// TestTopKDeterministic: the sketch is a pure function of its observation
// stream. The same observe/decay script — full of equal counts at the
// eviction minimum and at the Top cut-off — must yield the identical Top
// slice every time, never map-iteration order.
func TestTopKDeterministic(t *testing.T) {
	script := func() []Counted[int] {
		s := NewTopK[int](8)
		for round := 0; round < 6; round++ {
			for k := 0; k < 12; k++ { // 12 keys through 8 slots: evictions on ties
				for i := 0; i <= (k+round)%3; i++ {
					s.Observe(k)
				}
			}
			s.Decay(0.5)
			s.Observe(100 + round) // a newcomer against an all-tied minimum
		}
		return s.Top(5)
	}
	want := script()
	if len(want) != 5 {
		t.Fatalf("Top(5) returned %d rows", len(want))
	}
	for run := 1; run < 100; run++ {
		got := script()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: Top[%d] = %+v, first run had %+v", run, i, got[i], want[i])
			}
		}
	}
}
