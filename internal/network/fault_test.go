package network

import (
	"sync"
	"testing"
	"time"
)

// drain collects everything currently in a node's inbox without blocking.
func drain(node *Node) []Message {
	var out []Message
	for {
		select {
		case m, ok := <-node.Inbox():
			if !ok {
				return out
			}
			out = append(out, m)
		default:
			return out
		}
	}
}

func numbers(msgs []Message) []uint64 {
	out := make([]uint64, len(msgs))
	for i, m := range msgs {
		out[i] = m.Block.Number()
	}
	return out
}

func TestLinkDropFault(t *testing.T) {
	n := New(0)
	n.SeedFaults(42)
	a := n.Join("a", 256)
	b := n.Join("b", 256)
	_ = a
	n.SetDefaultFaults(LinkFaults{Drop: 0.5})
	const total = 200
	for i := 1; i <= total; i++ {
		a.Broadcast(block(uint64(i)))
	}
	n.Flush()
	got := len(drain(b))
	if got == 0 || got == total {
		t.Fatalf("drop fault had no effect: delivered %d of %d", got, total)
	}
	// Roughly half should survive (binomial, generous bounds).
	if got < total/4 || got > total*3/4 {
		t.Fatalf("drop rate implausible: delivered %d of %d at p=0.5", got, total)
	}
	n.Close()
}

func TestLinkDuplicateFault(t *testing.T) {
	n := New(0)
	n.SeedFaults(7)
	a := n.Join("a", 1024)
	b := n.Join("b", 1024)
	n.SetDefaultFaults(LinkFaults{Duplicate: 1.0})
	for i := 1; i <= 10; i++ {
		a.Broadcast(block(uint64(i)))
	}
	n.Flush()
	msgs := drain(b)
	if len(msgs) != 20 {
		t.Fatalf("delivered %d messages, want 20 (every one duplicated)", len(msgs))
	}
	for i := 0; i < 20; i += 2 {
		if msgs[i].Block.Number() != msgs[i+1].Block.Number() {
			t.Fatalf("duplicate pair mismatch at %d: %v", i, numbers(msgs))
		}
	}
	n.Close()
}

func TestLinkReorderFault(t *testing.T) {
	n := New(0)
	n.SeedFaults(1)
	a := n.Join("a", 1024)
	b := n.Join("b", 1024)
	n.SetDefaultFaults(LinkFaults{Reorder: 1.0})
	// With p=1 every message is held until the next one arrives, producing
	// pairwise swaps: 1,2,3,4 → 2,1,4,3.
	for i := 1; i <= 4; i++ {
		a.Broadcast(block(uint64(i)))
	}
	n.Flush()
	got := numbers(drain(b))
	want := []uint64{2, 1, 4, 3}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
	n.Close()
}

func TestReorderHoldbackFlushedOnClose(t *testing.T) {
	n := New(0)
	a := n.Join("a", 16)
	b := n.Join("b", 16)
	n.SetDefaultFaults(LinkFaults{Reorder: 1.0})
	a.Broadcast(block(1)) // held back, no successor
	n.Close()
	msgs := drain(b)
	if len(msgs) != 1 || msgs[0].Block.Number() != 1 {
		t.Fatalf("held message lost at Close: %v", numbers(msgs))
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func(seed int64) []uint64 {
		n := New(0)
		n.SeedFaults(seed)
		a := n.Join("a", 2048)
		b := n.Join("b", 2048)
		n.SetDefaultFaults(LinkFaults{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2})
		for i := 1; i <= 100; i++ {
			a.Broadcast(block(uint64(i)))
		}
		n.Flush()
		got := numbers(drain(b))
		n.Close()
		return got
	}
	x, y := run(99), run(99)
	if len(x) != len(y) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("same seed, different sequence at %d: %v vs %v", i, x, y)
		}
	}
	z := run(100)
	same := len(z) == len(x)
	if same {
		for i := range x {
			if x[i] != z[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault pattern (suspicious)")
	}
}

func TestPartitionBlocksAcrossGroups(t *testing.T) {
	n := New(0)
	a := n.Join("a", 64)
	b := n.Join("b", 64)
	c := n.Join("c", 64)
	n.SetPartitions([]string{"a", "b"}, []string{"c"})
	a.Broadcast(block(1))
	n.Flush()
	if got := drain(b); len(got) != 1 {
		t.Fatalf("same-group delivery failed: %v", numbers(got))
	}
	if got := drain(c); len(got) != 0 {
		t.Fatalf("cross-partition message leaked: %v", numbers(got))
	}
	n.Heal()
	a.Broadcast(block(2))
	n.Flush()
	if got := drain(c); len(got) != 1 || got[0].Block.Number() != 2 {
		t.Fatalf("post-heal delivery failed: %v", numbers(got))
	}
	n.Close()
}

func TestUnlistedNodeKeepsConnectivity(t *testing.T) {
	n := New(0)
	a := n.Join("a", 64)
	b := n.Join("b", 64)
	obs := n.Join("observer", 64)
	n.SetPartitions([]string{"a"}, []string{"b"})
	a.Broadcast(block(1))
	n.Flush()
	if got := drain(obs); len(got) != 1 {
		t.Fatalf("unlisted node should hear everyone: %v", numbers(got))
	}
	if got := drain(b); len(got) != 0 {
		t.Fatal("partitioned node should not hear across groups")
	}
	n.Close()
}

// TestCloseBroadcastRace hammers Broadcast (with latency, so deliveries are
// in-flight on timer goroutines) against Close. Run under -race this covers
// the Close vs in-flight deliver interleaving: inboxes must only close after
// every pending send has finished.
func TestCloseBroadcastRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		n := New(200 * time.Microsecond)
		nodes := []*Node{n.Join("a", 4), n.Join("b", 4), n.Join("c", 4)}
		var wg sync.WaitGroup
		for _, node := range nodes {
			wg.Add(1)
			go func(node *Node) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					node.Broadcast(block(uint64(i)))
				}
			}(node)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Drain all inboxes until closed so sends never stall.
			var dw sync.WaitGroup
			for _, node := range nodes {
				dw.Add(1)
				go func(node *Node) {
					defer dw.Done()
					for range node.Inbox() {
					}
				}(node)
			}
			dw.Wait()
		}()
		wg.Wait()
		n.Close()
		<-done
	}
}

func TestJoinAfterCloseIsSafe(t *testing.T) {
	n := New(0)
	n.Join("a", 1)
	n.Close()
	late := n.Join("late", 1)
	if _, ok := <-late.Inbox(); ok {
		t.Fatal("late joiner's inbox should be closed")
	}
}
