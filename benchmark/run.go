package main

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"blockpilot/internal/stats"
	"blockpilot/internal/telemetry"
)

// driverResult is what one pass of the closed loop produced: the timed run
// is exactly one of these; the traced run makes two (an untraced reference
// and the traced pass) plus the phase-B replay.
type driverResult struct {
	setup   []time.Duration // one per set-up performed
	samples []roundSample
	wall    time.Duration // first timed round start → last timed round end

	allocBytes, mallocs uint64 // MemStats deltas over the timed rounds
	liveHeap            uint64 // HeapAlloc after a forced GC, cluster still alive

	netDropped   int // NetworkDropped counter delta
	reopenFailed int // state_disk: failed reopen read-backs
	replayFailed int // traced run: sampled blocks failing VerifyBlockSerial
	inputDigest  string
	canonicalTxs int
	admittedTxs  int
	blocks       int
	rejected     int
	rootMismatch int
	aborts       int
	dropped      int
	committed    int
	wireBytes    int
}

// attempted and failed are the contract's operation counts: every admitted
// transaction and every broadcast block is an operation; a transaction that
// is not canonical at the end, a rejected or dropped block and a failed
// output check are failures.
func (d *driverResult) attempted() int { return d.admittedTxs + d.blocks }

func (d *driverResult) failed() int {
	return (d.admittedTxs - d.canonicalTxs) + d.rejected + d.netDropped +
		d.rootMismatch + d.reopenFailed + d.replayFailed
}

// setUp performs `repeats` full set-ups (genesis → stores → chains →
// pipeline → fabric → warm-up rounds), tearing down all but the last, and
// returns the surviving cluster with each set-up's wall time.
func setUp(s spec, opt options, repeats int) (*cluster, []time.Duration, error) {
	var took []time.Duration
	for i := 0; ; i++ {
		start := time.Now()
		c, err := newCluster(s, opt)
		if err != nil {
			return nil, nil, err
		}
		for w := 0; w < warmupRounds; w++ {
			rs, err := c.step(nil, false)
			if err == nil && (rs.rejected > 0 || rs.mismatch > 0 || rs.canonical != rs.admitted) {
				err = fmt.Errorf("warm-up round %d failed its output checks", w)
			}
			if err != nil {
				c.close()
				return nil, nil, err
			}
		}
		took = append(took, time.Since(start))
		if i == repeats-1 {
			return c, took, nil
		}
		if err := c.close(); err != nil {
			return nil, nil, err
		}
	}
}

// execute runs the closed loop for a fixed number of rounds. tr is nil for
// a timed run: telemetry, trace, flight and health stay off, no profile is
// taken and nothing is retained for replay.
func execute(s spec, opt options, rounds, setups int, tr *tracer) (*driverResult, error) {
	c, setup, err := setUp(s, opt, setups)
	if err != nil {
		return nil, err
	}
	defer c.close()
	res := &driverResult{setup: setup, samples: make([]roundSample, 0, rounds)}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dropped0 := telemetry.NetworkDropped.Value()
	if err := tr.start(c); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		rs, err := c.step(tr.recorder(), tr != nil && i%replayEvery == 0)
		if err != nil {
			tr.stop(c)
			return nil, err
		}
		res.samples = append(res.samples, rs)
	}
	res.wall = time.Since(start)
	if err := tr.stop(c); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.netDropped = int(telemetry.NetworkDropped.Value() - dropped0)

	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.liveHeap = m1.HeapAlloc

	for _, rs := range res.samples {
		res.admittedTxs += rs.admitted
		res.canonicalTxs += rs.canonical
		res.blocks += rs.blocks
		res.rejected += rs.rejected
		res.rootMismatch += rs.mismatch
		res.aborts += rs.aborts
		res.dropped += rs.dropped
		res.committed += rs.committed
		res.wireBytes += rs.wireBytes
	}
	res.inputDigest = hex.EncodeToString(c.digest.Sum(nil))

	if tr != nil {
		if err := tr.replay(c, res); err != nil {
			return nil, err
		}
	}
	res.reopenFailed = c.reopenCheck()
	return res, nil
}

// quantileMs is quantile over durations, in milliseconds.
func quantileMs(xs []time.Duration, q float64) float64 {
	return quantile(durationsTo(xs, time.Millisecond), q)
}

func durationsTo(xs []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, q*100)
}

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }

// collect flattens one per-round duration list out of the samples.
func collect(samples []roundSample, pick func(*roundSample) []time.Duration) []time.Duration {
	var out []time.Duration
	for i := range samples {
		out = append(out, pick(&samples[i])...)
	}
	return out
}

func roundWalls(samples []roundSample) []time.Duration {
	return collect(samples, func(r *roundSample) []time.Duration { return []time.Duration{r.round} })
}

func proposes(samples []roundSample) []time.Duration {
	return collect(samples, func(r *roundSample) []time.Duration { return r.propose })
}

func validates(samples []roundSample) []time.Duration {
	return collect(samples, func(r *roundSample) []time.Duration { return r.validate })
}

// endToEndMetrics derives every end-to-end metric from a timed run.
func endToEndMetrics(d *driverResult) map[string]float64 {
	tx := float64(max(d.canonicalTxs, 1))
	return map[string]float64{
		"tx_per_s":        float64(d.canonicalTxs) / d.wall.Seconds(),
		"round_ms_p50":    quantileMs(roundWalls(d.samples), 0.50),
		"round_ms_p90":    quantileMs(roundWalls(d.samples), 0.90),
		"propose_ms_p50":  quantileMs(proposes(d.samples), 0.50),
		"validate_ms_p50": quantileMs(validates(d.samples), 0.50),
		"validate_ms_p90": quantileMs(validates(d.samples), 0.90),
		"alloc_kb_per_tx": float64(d.allocBytes) / 1024 / tx,
		"live_heap_mb":    float64(d.liveHeap) / (1 << 20),
		"setup_s":         quantile(durationsTo(d.setup, time.Second), 0.50),
	}
}
