# BlockPilot CI entry points. `make ci` is what the tier-1 gate runs:
# vet (go vet + a gofmt check) + build + full test suite (the concurrency packages — core, mv, mempool,
# pipeline, validator, evm, node, state; not scheduler, which starts no goroutine — additionally under
# -cpu 1,2,4, so a 1-CPU runner cannot hide a scheduling-dependent bug; every
# Propose test rides both engines with and without the adaptive controller) +
# race detector on the concurrency-heavy packages (OCC-WSI core, MV-STM
# engine, mempool, pipeline, validator, network, sim, telemetry, trace recorder, health
# recorder, and the chain, which prunes its state window while pipeline goroutines read) + one disabled-path budget gate over telemetry and the trace
# recorder (obs-budget) + the state path's lookup and
# allocation budget
# (state-budget) + a live health-sampler smoke (health-smoke)
# + the cluster-simulator scenario matrix with its
# mutation self-check and span-chain oracle (sim-smoke) + the disk-backed
# state persistence battery at 500k accounts (state-smoke) + a short corpus
# pass over the fuzz targets (fuzz-smoke).
# See docs/TESTING.md for the oracle definitions, the scenario matrix, and
# seed-replay instructions.
#
# `make bench` runs the one regression harness, `go run ./benchmark`
# (propose → broadcast → pipelined validate → commit on real cores; see
# benchmark/README.md and BENCHMARK.json); `make bench-compare BASE=a.json
# OTHER=b.json` gives the verdict between two sets of recorded runs. See
# docs/PERFORMANCE.md.
#
# `make trace-demo` runs a short skewed workload with the trace recorder on
# and leaves trace.json (open at https://ui.perfetto.dev) plus the hot-key
# attribution report on stdout. See docs/OBSERVABILITY.md.
#
# `make lines` prints non-test Go lines per internal/* package with their
# total, then cmd/ and the root package: what a simplicity PR quotes before
# and after.

GO ?= go

.PHONY: all ci vet build test race race-all obs-budget state-budget health-smoke sim-smoke state-smoke fuzz-smoke bench bench-compare bench-go telemetry-bench flight-bench trace-demo crit-demo health-demo lines clean

all: ci

ci: vet build test race obs-budget state-budget health-smoke sim-smoke state-smoke fuzz-smoke

# gofmt -l prints the files it would rewrite; any output fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# The packages whose behaviour depends on how goroutines interleave: tested
# at GOMAXPROCS 1, 2 and 4 so a single-CPU runner still exercises real
# concurrency (and a many-core one still exercises the 1-CPU schedule).
# internal/evm is here for its code-analysis cache (segments included) and
# operand-stack pool, the one state its frames share across goroutines;
# internal/validator for the result array its lanes read while other lanes
# fill it, and the sibling record another block's lanes read.
# internal/node for a proposer packing while a validator's pipeline runs
# beside it. internal/state for the disk commit's persist goroutine, which
# holds the node store's lock while the caller reads on.
# internal/scheduler is not: it starts no goroutine, so a -cpu sweep or
# -race over it would buy nothing.
CONCURRENCY_PKGS = ./internal/core/... ./internal/mv/... ./internal/mempool/... ./internal/pipeline/... ./internal/validator/... ./internal/evm/ ./internal/node/ ./internal/state/

# The TopK pass repeats because an order-dependent heavy-hitter sketch (the
# adaptive controller's; map iteration deciding a tie) fails about one run in
# eight, not every run; the validator's verdict test because a verdict that
# follows arrival order rather than block order only shows on some
# interleavings, its read-rule
# tests because a reader that waits on, or skips past, the wrong writer only
# shows on some too, its sibling tests because takeable settles each
# verdict across racing lanes, and the mempool's Add-against-pop test because
# an Add that lands between a pop and its sender's in-flight mark only shows
# on some interleavings.
test:
	$(GO) test ./...
	$(GO) test -cpu 1,2,4 $(CONCURRENCY_PKGS)
	$(GO) test -count=20 -run 'TopK|TestVerdictFirstFailure|TestReadRules|TestSibling|TestAddRacesPop' ./internal/adaptive/ ./internal/validator/ ./internal/mempool/

race:
	$(GO) test -race -timeout 30m -cpu 1,2,4 $(CONCURRENCY_PKGS)
	$(GO) test -race ./internal/adaptive/... ./internal/chain/ ./internal/network/... ./internal/telemetry/... ./internal/trace/... ./internal/health/... ./internal/trie/... ./internal/trie/store/...

# Race detector over the *entire* module, cluster simulator included. Slower
# than `race`; run before merging concurrency changes.
race-all:
	$(GO) test -race ./...

# The observability zero-cost gate: with telemetry off and no trace recorder
# installed, every hot-path helper — the per-transaction helpers and the
# Begin/End pair that times each phase — must stay atomic loads + nil checks:
# 0 allocations, within a small factor of a reference atomic load.
obs-budget:
	$(GO) test -run TestDisabledPathBudget -count=1 ./internal/telemetry/ ./internal/trace/

# The state path's budget (docs/PERFORMANCE.md §9): an overlay costs its base
# one Account call per account and one Code call per contract, through Memory
# and through the proposer's view alike; ApplyChangeSet reads nothing; a
# decoded branch is two allocations, and a reference to it or to a hashed
# node none (each node keeps its own); a 256-key trie batch copies no items
# per level and reuses its scratch; a second store Commit reuses the record
# buffer; a Release allocates the same small
# constant whether it prunes 41 nodes or 1 033, and reads nothing — it runs
# on a handle that fails every read; a disk commit through a
# reused trie batch allocates nothing per staged record, only each inner
# node's write-through hashNodes; a 640-account disk state commit stays
# within 10 % of its bytes and allocations per account, the persist behind
# its return included; and one
# 132-transaction block through Propose → Encode → DecodeBlock →
# ValidateParallel stays within 10 % of its allocation budget (docs/PERFORMANCE.md §10). A fourth lookup, a
# re-grown slice or a nested encoder fails here, without running the benchmark.
state-budget:
	$(GO) test -count=1 -run 'TestOverlayReadsEachAccountOnce|TestApplyChangeSetReadsNothing|TestDecodeNodeAllocs|TestRefAllocs|TestBatchAllocs|TestCommitReusesBuffer|TestReleaseAllocs|TestReleaseReadsNothing|TestPersistAllocs|TestDiskCommitAllocs|TestBlockPathAllocs' ./internal/state/ ./internal/core/ ./internal/trie/ ./internal/trie/store/

# Live end-to-end pass of the health recorder: a real sampler at a fast
# interval over actual runtime metrics and the live telemetry registry.
health-smoke:
	$(GO) test -short -count=1 -run TestHealthSmoke ./internal/health/

# Cluster-simulator gate: every fault scenario (9) at 4 seeds under BOTH
# proposer engines (TestScenarioMatrix = occ-wsi, TestScenarioMatrixMVSTM =
# mv-stm, TestScenarioMatrixAdaptive = both engines with the contention
# controller attached), all five oracles checked per run (serializability,
# parity, pipeline-safety, corruption-detection, span-chain completeness),
# digest-determinism double-runs, the seeded-bug mutation self-check, and
# one baseline run past the validators' chain.StateWindow (TestBeyondStateWindow).
# A failing run prints `bpbench -exp sim -scenario S -seed N -engine E [-adaptive]` to
# replay it exactly.
sim-smoke:
	$(GO) test -count=1 -run 'TestScenarioMatrix|TestDigestDeterminism|TestMutationSelfCheck|TestTraceSpansComplete|TestBeyondStateWindow' ./internal/sim/

# Short corpus pass over the property fuzz targets: a few seconds of input
# generation per target, enough to exercise the generators and seed corpora
# without the open-ended fuzzing budget (see docs/TESTING.md for long runs).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzTrieBatchVsUpdate -fuzztime 3s ./internal/trie/
	$(GO) test -run '^$$' -fuzz FuzzFoldVsMerge -fuzztime 3s ./internal/state/
	$(GO) test -run '^$$' -fuzz FuzzBlockProfileRoundTrip -fuzztime 3s ./internal/types/
	$(GO) test -run '^$$' -fuzz FuzzEncodeVsReference -fuzztime 3s ./internal/types/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 3s ./internal/types/
	$(GO) test -run '^$$' -fuzz FuzzMempoolAdmit -fuzztime 3s ./internal/mempool/
	$(GO) test -run '^$$' -fuzz FuzzMVVersionChain -fuzztime 3s ./internal/mv/
	$(GO) test -run '^$$' -fuzz '^FuzzValidateVsSerial$$' -fuzztime 3s ./internal/validator/
	$(GO) test -run '^$$' -fuzz FuzzDecodeNodeVsReference -fuzztime 3s ./internal/trie/
	$(GO) test -run '^$$' -fuzz FuzzNodeEdgesVsReference -fuzztime 3s ./internal/trie/
	$(GO) test -run '^$$' -fuzz FuzzAppendRefVsReference -fuzztime 3s ./internal/trie/
	$(GO) test -run '^$$' -fuzz FuzzNodeStore -fuzztime 3s ./internal/trie/store/
	$(GO) test -run '^$$' -fuzz FuzzNodeIndexVsMap -fuzztime 3s ./internal/trie/store/
	$(GO) test -run '^$$' -fuzz FuzzKeccak256VsReference -fuzztime 3s ./internal/crypto/
	$(GO) test -run '^$$' -fuzz FuzzRunVsReference -fuzztime 3s ./internal/evm/

# Disk-backed state gate: the persistence battery's CI short-mode scale run —
# a 500k-account chunked genesis plus chained block commits with pruning,
# bounded-heap asserted, final root reopen-verified. The full 5M-account
# acceptance run is the same test at BLOCKPILOT_SCALE_ACCOUNTS=5000000.
state-smoke:
	BLOCKPILOT_SCALE_ACCOUNTS=500000 $(GO) test -count=1 -timeout 30m -run 'TestDiskStateScale' ./internal/state/
	$(GO) test -count=1 -run 'TestDiskStateSmoke|TestDiskSnapshotParity|TestLargeCommitReadsItsOwnWrites|TestCommitOrdersLaterStoreCalls|TestCrashRecoveryEveryOffset' ./internal/state/ ./internal/trie/store/

# The regression harness: every BENCHMARK.json workload end to end on real
# cores, timed and traced passes (see benchmark/README.md).
bench:
	$(GO) run ./benchmark

# Verdict per (workload, metric) between two record files written with
# `go run ./benchmark -out FILE` (e.g. the parent commit's runs vs this
# one's): make bench-compare BASE=base.json OTHER=other.json
bench-compare:
	$(GO) run ./benchmark compare $(BASE) $(OTHER)

# Go micro-benchmarks of the remaining testing.B loops (allocation counts via
# -benchmem); internal/scheduler's is the serial graph build on a 400-tx
# profile, internal/trie's the prune of one version of a 50k-account disk trie
# (ns and allocations per pruned node), internal/types' the encoding and the
# transaction root of a 132-transaction block.
bench-go:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/scheduler/ ./internal/mempool/ ./internal/evm/ ./internal/crypto/ ./internal/uint256/ ./internal/trie/ ./internal/types/

telemetry-bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/telemetry/

flight-bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/trace/

# Trace-recorder walkthrough: a short Zipfian (hotspot) workload with the
# recorder enabled; writes trace.json and prints the hot-key report.
trace-demo:
	$(GO) run ./cmd/bpinspect hotkeys -blocks 3 -threads 8 -swap-ratio 0.85 -pairs 3 -trace-out trace.json

# Critical-path walkthrough: the trace recorder's block stages over the
# default and hotspot workloads; prints per-block waterfalls and the stall-attribution
# summary (see docs/OBSERVABILITY.md).
crit-demo:
	$(GO) run ./cmd/bpinspect crit -blocks 4 -threads 8
	$(GO) run ./cmd/bpinspect crit -blocks 4 -threads 8 -swap-ratio 0.85 -pairs 3

# Runtime-health walkthrough: sparkline time series + watchdog incident
# history over a short local run (see docs/OBSERVABILITY.md).
health-demo:
	$(GO) run ./cmd/bpinspect health -blocks 4 -threads 8

# Non-test Go lines per internal/* package (sub-packages included) and their
# total — the size a simplicity PR quotes before and after — then cmd/ and
# the root package on rows of their own, outside the total, so a flag removed
# from a command shows up too.
lines:
	@total=0; for d in internal/*/; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-22s %6d\n' $$d $$n; total=$$((total + n)); \
	done; printf '%-22s %6d\n' total $$total; \
	printf '%-22s %6d\n' cmd/ $$(find cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%-22s %6d\n' ./ $$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)

clean:
	$(GO) clean ./...
