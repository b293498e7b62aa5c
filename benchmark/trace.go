package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/trie"
	"blockpilot/internal/trie/store"
)

// tracer is phase A of the traced run: it turns telemetry on, records the
// benchmark-side spans, takes a CPU profile and brackets the rounds with
// counter snapshots. A nil *tracer is the timed run; every method no-ops.
type tracer struct {
	rec         *recorder
	profilePath string
	spansPath   string
	profile     *os.File

	telBefore, telAfter *telemetry.Snapshot
	dbBefore, dbAfter   trie.DBStats // validator store (zero on the mem backend)
	stBefore, stAfter   store.Stats
	cpu                 time.Duration
	gcCPU               float64 // seconds
	wall                time.Duration
	started             time.Time

	layers *layerSamples // phase B
}

func newTracer(outDir, workload string) *tracer {
	return &tracer{
		profilePath: filepath.Join(outDir, workload+".cpu.pb.gz"),
		spansPath:   filepath.Join(outDir, workload+".spans.json"),
	}
}

func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func (t *tracer) start(c *cluster) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(t.profilePath), 0o755); err != nil {
		return err
	}
	f, err := os.Create(t.profilePath)
	if err != nil {
		return err
	}
	t.profile = f
	t.rec = newRecorder()
	telemetry.Enable()
	t.telBefore = telemetry.TakeSnapshot()
	if c.valDB != nil {
		t.dbBefore, t.stBefore = c.valDB.Stats(), c.valDB.Store().Stats()
	}
	t.gcCPU = -gcCPUSeconds()
	t.cpu = -processCPU()
	t.started = time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

func (t *tracer) stop(c *cluster) error {
	if t == nil || t.profile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	t.wall = time.Since(t.started)
	t.cpu += processCPU()
	t.gcCPU += gcCPUSeconds()
	if c.valDB != nil {
		t.dbAfter, t.stAfter = c.valDB.Stats(), c.valDB.Store().Stats()
	}
	t.telAfter = telemetry.TakeSnapshot()
	telemetry.Disable()
	err := t.profile.Close()
	t.profile = nil
	if werr := t.rec.write(t.spansPath); err == nil {
		err = werr
	}
	return err
}

// cpuUtil is process CPU over available core-time during phase A.
func (t *tracer) cpuUtil() float64 {
	avail := t.wall.Seconds() * float64(runtime.GOMAXPROCS(0))
	if avail <= 0 {
		return 0
	}
	return min(t.cpu.Seconds()/avail, 1)
}

// counterDelta is a telemetry counter's increase over phase A.
func (t *tracer) counterDelta(name string) float64 {
	return t.telAfter.Counter(name) - t.telBefore.Counter(name)
}

// histDelta returns phase A's share of a cumulative telemetry histogram.
func (t *tracer) histDelta(name string) *telemetry.HistogramSnapshot {
	after := t.telAfter.Histogram(name)
	if after == nil {
		return &telemetry.HistogramSnapshot{}
	}
	d := telemetry.HistogramSnapshot{Name: name}
	before := make(map[uint64]uint64)
	if b := t.telBefore.Histogram(name); b != nil {
		d.Sum -= b.Sum
		for _, bc := range b.Buckets {
			before[bc.UpperBound] = bc.Count
		}
	}
	d.Sum += after.Sum
	for _, bc := range after.Buckets {
		if n := bc.Count - before[bc.UpperBound]; n > 0 {
			d.Buckets = append(d.Buckets, telemetry.BucketCount{UpperBound: bc.UpperBound, Count: n})
			d.Count += n
		}
	}
	return &d
}
