package main

import (
	"runtime"
	"time"
)

// metricDef is one catalogue row. BENCHMARK.json repeats it; a unit test
// keeps the two in step. README.md says which end-to-end metric each
// per-layer metric should move, and on which workload.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" | "lower"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd are the metrics a user of the system would see. fail_ratio is
// always 0 on a passing run, so it cannot carry a relative bound: the
// contract line reports it as failed/attempted and compare fails on any rise.
var endToEnd = []metricDef{
	{name: "tx_per_s", unit: "tx/s", better: "higher", bound: 0.25},
	{name: "round_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "round_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "propose_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "validate_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "validate_ms_p90", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_tx", unit: "KiB/tx", better: "lower", bound: 0.03},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const failRatio = "fail_ratio"

func layerDefs() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{name: "cpu_share." + l, unit: "ratio", better: "lower"})
	}
	return append(defs, []metricDef{
		{name: "mempool.admit_us_per_tx", unit: "us/tx", better: "lower"},
		{name: "mempool.cycle_us_per_tx", unit: "us/tx", better: "lower"},
		{name: "mempool.pop_batch_mean", unit: "count", better: "higher"},

		{name: "core.aborts_per_tx", unit: "ratio", better: "lower"},
		{name: "core.retries_per_tx", unit: "ratio", better: "lower"},
		{name: "core.dropped_per_tx", unit: "ratio", better: "lower"},
		{name: "core.speedup_vs_serial", unit: "ratio", better: "higher"},
		{name: "core.exec_efficiency", unit: "ratio", better: "higher"},
		{name: "core.stripe_wait_us_p90", unit: "us", better: "lower"},

		{name: "mv.propose_ms_p50", unit: "ms", better: "lower"},
		{name: "mv.reexec_per_tx", unit: "ratio", better: "lower"},
		{name: "mv.estimate_hits_per_tx", unit: "ratio", better: "lower"},
		{name: "adaptive.propose_ms_p50", unit: "ms", better: "lower"},
		{name: "adaptive.aborts_per_tx", unit: "ratio", better: "lower"},
		{name: "adaptive.lane_share", unit: "ratio", better: "lower"},

		{name: "network.transit_ms_p50", unit: "ms", better: "lower"},
		{name: "network.dropped", unit: "count", better: "lower"},
		{name: "types.block_bytes_per_tx", unit: "B/tx", better: "lower"},
		{name: "types.encode_us_per_tx", unit: "us/tx", better: "lower"},
		{name: "types.decode_us_per_tx", unit: "us/tx", better: "lower"},
		{name: "types.tx_root_us_per_tx", unit: "us/tx", better: "lower"},

		{name: "pipeline.sibling_window_ms_p50", unit: "ms", better: "lower"},
		{name: "pipeline.fork_speedup", unit: "ratio", better: "higher"},

		{name: "validator.prepare_ms_p50", unit: "ms", better: "lower"},
		{name: "validator.execute_ms_p50", unit: "ms", better: "lower"},
		{name: "validator.apply_ms_p50", unit: "ms", better: "lower"},
		{name: "validator.commit_ms_p50", unit: "ms", better: "lower"},
		{name: "validator.speedup_vs_serial", unit: "ratio", better: "higher"},
		{name: "validator.exec_efficiency", unit: "ratio", better: "higher"},

		{name: "scheduler.build_us_p50", unit: "us", better: "lower"},
		{name: "scheduler.components_mean", unit: "count", better: "higher"},
		{name: "scheduler.largest_component_pct", unit: "%", better: "lower"},
		{name: "scheduler.lpt_imbalance", unit: "ratio", better: "lower"},

		{name: "chain.serial_ms_p50", unit: "ms", better: "lower"},
		{name: "chain.serial_mgas_per_s", unit: "Mgas/s", better: "higher"},
		{name: "chain.commit_root_ms_p50", unit: "ms", better: "lower"},

		{name: "evm.exec_ms_p50", unit: "ms", better: "lower"},
		{name: "evm.mgas_per_s", unit: "Mgas/s", better: "higher"},
		{name: "evm.us_per_tx_p50", unit: "us", better: "lower"},
		{name: "evm.us_per_tx_p90", unit: "us", better: "lower"},

		{name: "state.commit_ms_p50", unit: "ms", better: "lower"},
		{name: "state.read_us_per_key", unit: "us", better: "lower"},
		{name: "state.flat_hit_ratio", unit: "ratio", better: "higher"},
		{name: "trie.root_hash_ms_p50", unit: "ms", better: "lower"},
		{name: "trie.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "trie.read_amplification", unit: "ratio", better: "lower"},

		{name: "store.disk_reads_per_tx", unit: "1/tx", better: "lower"},
		{name: "store.read_bytes_per_tx", unit: "B/tx", better: "lower"},
		{name: "store.puts_per_tx", unit: "1/tx", better: "lower"},
		{name: "store.file_bytes_per_tx", unit: "B/tx", better: "lower"},
		{name: "store.sync_ms_p50", unit: "ms", better: "lower"},
		{name: "store.live_roots", unit: "count", better: "lower"},

		{name: "crypto.keccak_ns_32b", unit: "ns", better: "lower"},
		{name: "crypto.keccak_ns_node", unit: "ns", better: "lower"},

		{name: "runtime.cpu_util", unit: "ratio", better: "higher"},
		{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
		{name: "runtime.allocs_per_tx", unit: "1/tx", better: "lower"},
		{name: "obs.trace_overhead_pct", unit: "%", better: "lower"},
	}...)
}

var perLayer = layerDefs()

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perLayerMetrics assembles every per-layer metric from the untraced
// reference pass, the traced pass (phase A) and the replay (phase B).
func perLayerMetrics(ref, traced *driverResult, t *tracer, shares map[string]float64, threads int) map[string]float64 {
	ls := t.layers
	m := make(map[string]float64, len(perLayer))
	for l, v := range shares {
		m["cpu_share."+l] = v
	}
	txs := float64(max(ls.txs, 1))
	canonical := float64(max(traced.canonicalTxs, 1))
	committed := float64(max(traced.committed, 1))
	proposeP50 := quantileMs(proposes(ref.samples), 0.50)
	serialP50 := quantileMs(ls.serial, 0.50)
	evmP50 := quantileMs(ls.evmBlock, 0.50)
	histMs := func(name string, q float64) float64 { return t.histDelta(name).Quantile(q) / 1e6 }

	replayTxs := float64(max(ls.poolTxs, 1))
	m["mempool.admit_us_per_tx"] = us(ls.admit) / replayTxs
	m["mempool.cycle_us_per_tx"] = us(ls.cycle) / replayTxs
	m["mempool.pop_batch_mean"] = t.histDelta("blockpilot_mempool_pop_batch_size").Mean()

	m["core.aborts_per_tx"] = float64(traced.aborts) / committed
	m["core.retries_per_tx"] = t.counterDelta("blockpilot_proposer_retries_total") / committed
	m["core.dropped_per_tx"] = float64(traced.dropped) / committed
	m["core.speedup_vs_serial"] = safeDiv(serialP50, proposeP50)
	m["core.exec_efficiency"] = safeDiv(evmP50, proposeP50*float64(threads))
	m["core.stripe_wait_us_p90"] = t.histDelta("blockpilot_proposer_stripe_wait_ns").Quantile(0.90) / 1e3

	m["mv.propose_ms_p50"] = quantileMs(ls.mvPropose, 0.50)
	m["mv.reexec_per_tx"] = safeDiv(float64(ls.mvReexec), float64(ls.mvTxs))
	m["mv.estimate_hits_per_tx"] = safeDiv(float64(ls.mvEstHit), float64(ls.mvTxs))
	m["adaptive.propose_ms_p50"] = quantileMs(ls.adPropose, 0.50)
	m["adaptive.aborts_per_tx"] = safeDiv(float64(ls.adAborts), float64(ls.adTxs))
	m["adaptive.lane_share"] = mean(ls.adLaneShare)

	transit := collect(traced.samples, func(r *roundSample) []time.Duration { return r.transit })
	m["network.transit_ms_p50"] = quantileMs(transit, 0.50)
	m["network.dropped"] = float64(traced.netDropped)
	m["types.block_bytes_per_tx"] = float64(ls.wireBytes) / txs
	m["types.encode_us_per_tx"] = us(ls.encode) / txs
	m["types.decode_us_per_tx"] = us(ls.decode) / txs
	m["types.tx_root_us_per_tx"] = us(ls.txRoot) / txs

	windows := collect(traced.samples, func(r *roundSample) []time.Duration { return []time.Duration{r.window} })
	m["pipeline.sibling_window_ms_p50"] = quantileMs(windows, 0.50)
	m["pipeline.fork_speedup"] = quantile(ls.forkSpeedup, 0.50)

	executeP50 := histMs("blockpilot_pipeline_execute_duration_ns", 0.50)
	m["validator.prepare_ms_p50"] = histMs("blockpilot_pipeline_prepare_duration_ns", 0.50)
	m["validator.execute_ms_p50"] = executeP50
	m["validator.apply_ms_p50"] = histMs("blockpilot_pipeline_validate_duration_ns", 0.50)
	m["validator.commit_ms_p50"] = histMs("blockpilot_pipeline_commit_duration_ns", 0.50)
	m["validator.speedup_vs_serial"] = safeDiv(serialP50, quantileMs(ls.parallel, 0.50))
	m["validator.exec_efficiency"] = safeDiv(evmP50, executeP50*float64(threads))

	m["scheduler.build_us_p50"] = quantile(durationsTo(ls.schedBuild, time.Microsecond), 0.50)
	m["scheduler.components_mean"] = mean(ls.components)
	m["scheduler.largest_component_pct"] = mean(ls.largestPct)
	m["scheduler.lpt_imbalance"] = mean(ls.imbalance)

	var serialTotal, evmTotal time.Duration
	for _, d := range ls.serial {
		serialTotal += d
	}
	for _, d := range ls.evmBlock {
		evmTotal += d
	}
	m["chain.serial_ms_p50"] = serialP50
	m["chain.serial_mgas_per_s"] = safeDiv(float64(ls.gas)/1e6, serialTotal.Seconds())
	m["chain.commit_root_ms_p50"] = quantileMs(ls.commitRoot, 0.50)

	m["evm.exec_ms_p50"] = evmP50
	m["evm.mgas_per_s"] = safeDiv(float64(ls.gas)/1e6, evmTotal.Seconds())
	evmTx := durationsTo(ls.evmTx, time.Microsecond)
	m["evm.us_per_tx_p50"] = quantile(evmTx, 0.50)
	m["evm.us_per_tx_p90"] = quantile(evmTx, 0.90)

	db0, db1 := t.dbBefore, t.dbAfter
	logical := float64(db1.LogicalReads - db0.LogicalReads)
	m["state.commit_ms_p50"] = quantileMs(ls.stateCommit, 0.50)
	m["state.read_us_per_key"] = safeDiv(us(ls.readTime), float64(ls.readKeys))
	m["state.flat_hit_ratio"] = safeDiv(float64(db1.FlatHits-db0.FlatHits), logical)
	m["trie.root_hash_ms_p50"] = quantileMs(ls.rootHash, 0.50)
	m["trie.cache_hit_ratio"] = safeDiv(float64(db1.CacheHits-db0.CacheHits), float64(db1.Resolves-db0.Resolves))
	m["trie.read_amplification"] = safeDiv(float64(db1.DiskReads-db0.DiskReads), logical)

	syncs := collect(traced.samples, func(r *roundSample) []time.Duration {
		if r.sync == 0 {
			return nil
		}
		return []time.Duration{r.sync}
	})
	m["store.disk_reads_per_tx"] = float64(db1.DiskReads-db0.DiskReads) / canonical
	m["store.read_bytes_per_tx"] = float64(db1.DiskBytesRead-db0.DiskBytesRead) / canonical
	m["store.puts_per_tx"] = float64(t.stAfter.Puts-t.stBefore.Puts) / canonical
	m["store.file_bytes_per_tx"] = float64(db1.FileBytes-db0.FileBytes) / canonical
	m["store.sync_ms_p50"] = quantileMs(syncs, 0.50)
	m["store.live_roots"] = float64(db1.Roots)

	m["crypto.keccak_ns_32b"] = keccakNs(32)
	m["crypto.keccak_ns_node"] = keccakNs(532)

	avail := t.wall.Seconds() * float64(runtime.GOMAXPROCS(0))
	m["runtime.cpu_util"] = t.cpuUtil()
	m["runtime.gc_cpu_share"] = safeDiv(t.gcCPU, avail)
	m["runtime.allocs_per_tx"] = float64(traced.mallocs) / canonical
	m["obs.trace_overhead_pct"] = (safeDiv(quantileMs(roundWalls(traced.samples), 0.50), quantileMs(roundWalls(ref.samples), 0.50)) - 1) * 100
	return m
}
