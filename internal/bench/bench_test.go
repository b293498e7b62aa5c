package bench

import (
	"testing"
)

// smallOptions keeps harness self-tests quick.
func smallOptions() Options {
	o := DefaultOptions()
	o.Blocks = 4
	o.Repeats = 1
	o.Threads = []int{1, 2, 4}
	o.Workload.NumAccounts = 400
	o.Workload.TxPerBlock = 60
	return o
}

func TestRunCorrectness(t *testing.T) {
	o := smallOptions()
	res, err := RunCorrectness(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllRootsMatch {
		t.Fatalf("correctness failed: %s", res.Detail)
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestRunProposer(t *testing.T) {
	res, err := RunProposer(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanSpeedup) != 3 {
		t.Fatalf("%d speedup points", len(res.MeanSpeedup))
	}
	for i, s := range res.MeanSpeedup {
		if s <= 0 {
			t.Fatalf("speedup[%d] = %f", i, s)
		}
	}
	t.Log("\n" + res.Render())
}

func TestRunValidator(t *testing.T) {
	res, err := RunValidator(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanSpeedup) != 3 || len(res.MeanSpeedupOCC) != 3 {
		t.Fatal("wrong series lengths")
	}
	if res.MeanLargestRatio <= 0 || res.MeanLargestRatio > 1 {
		t.Fatalf("largest ratio = %f", res.MeanLargestRatio)
	}
	t.Log("\n" + res.Render())
}

func TestRunHotspot(t *testing.T) {
	o := smallOptions()
	o.Blocks = 14 // 2 per sweep point
	res, err := RunHotspot(o)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, c := range res.Count {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Fatalf("hotspot sweep covered only %d ratio buckets", nonEmpty)
	}
	t.Log("\n" + res.Render())
}

func TestRunPipeline(t *testing.T) {
	o := smallOptions()
	res, err := RunPipeline(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Speedup) != 3 {
		t.Fatal("wrong series length")
	}
	t.Log("\n" + res.Render())
}

// TestCorrectnessExtended replays a longer chain (the §5.2 check at scale);
// skipped under -short.
func TestCorrectnessExtended(t *testing.T) {
	if testing.Short() {
		t.Skip("extended correctness run")
	}
	o := smallOptions()
	o.Blocks = 100
	res, err := RunCorrectness(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllRootsMatch {
		t.Fatalf("divergence: %s", res.Detail)
	}
}

func TestRunAblations(t *testing.T) {
	o := smallOptions()
	sched, err := RunSchedulingAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Variants) != 2 {
		t.Fatal("scheduling ablation variants")
	}
	gran, err := RunGranularityAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(gran.Variants) != 2 {
		t.Fatal("granularity ablation variants")
	}
	t.Log("\n" + sched.Render() + "\n" + gran.Render())
}
