// Central metric definitions for the BlockPilot hot paths. Every
// instrumented package references these vars; docs/OBSERVABILITY.md is the
// authoritative catalogue and must stay in sync with this file.
package telemetry

// Proposer (OCC-WSI engine, internal/core).
var (
	ProposerCommits = NewCounter("blockpilot_proposer_commits_total",
		"Transactions committed through the reserve-table validation (Alg. 1).")
	ProposerAborts = NewCounter("blockpilot_proposer_aborts_total",
		"WSI conflict aborts: commit attempts rejected by a stale read.")
	ProposerSnapshotExtensions = NewCounter("blockpilot_proposer_snapshot_extensions_total",
		"Executions re-based on the newest commit before reading a key overwritten after their snapshot (would-be aborts rescued).")
	ProposerSnapshotExtensionsDeclined = NewCounter("blockpilot_proposer_snapshot_extensions_declined_total",
		"Snapshot extensions refused because a value the execution already held was overwritten too: the stale read proceeds and aborts at commit.")
	ProposerRetries = NewCounter("blockpilot_proposer_retries_total",
		"Aborted or nonce-blocked transactions requeued into the pending pool.")
	ProposerDrops = NewCounter("blockpilot_proposer_drops_total",
		"Transactions abandoned for good (invalid, unfunded, or retry cap).")
	ProposerReserveConflicts = NewCounter("blockpilot_proposer_reserve_conflicts_total",
		"OCC-WSI store commits refused by the reserve-table check (stale-read detections).")
	ProposerSnapshotBuilds = NewCounter("blockpilot_proposer_snapshot_builds_total",
		"Versioned snapshot views armed for speculative OCC-WSI execution.")
	ProposerBlockSeconds = NewHistogram("blockpilot_proposer_block_duration_ns",
		"Wall time of one Propose call (block packing).", "ns")
	ProposerBlockTxs = NewHistogram("blockpilot_proposer_block_txs",
		"Transactions packed per proposed block.", "")
	ProposerStripeWaitNs = NewHistogram("blockpilot_proposer_stripe_wait_ns",
		"Time one commit spent acquiring the version store's locks for its keys (lock-convoy probe).", "ns")
	ProposerDroppedRetryBudget = NewCounter("blockpilot_proposer_dropped_total",
		"Transactions dropped specifically because their abort-retry budget ran out.")
)

// Proposer MV-STM engine (internal/mv), the Block-STM-style alternative
// behind ProposerConfig.Engine = "mv-stm".
var (
	MVReexecutions = NewCounter("blockpilot_mv_reexecutions_total",
		"MV-STM incarnations executed beyond each transaction's first (wasted speculative work).")
	MVEstimateHits = NewCounter("blockpilot_mv_estimate_hits_total",
		"MV-STM reads that landed on an ESTIMATE sentinel and suspended on the writing transaction.")
	MVValidationFails = NewCounter("blockpilot_mv_validation_fails_total",
		"MV-STM validation aborts: read sets invalidated by a lower transaction's write.")
)

// Validator (profile-guided re-execution, internal/validator).
var (
	ValidatorBlocks = NewCounter("blockpilot_validator_blocks_total",
		"Blocks accepted by ValidateParallel.")
	ValidatorRejects = NewCounter("blockpilot_validator_rejects_total",
		"Blocks rejected by ValidateParallel (any cause).")
	ValidatorVerifyFailures = NewCounter("blockpilot_validator_verify_failures_total",
		"Applier profile-verification failures (access-set or gas divergence).")
	ValidatorBlockSeconds = NewHistogram("blockpilot_validator_block_duration_ns",
		"Wall time of one ValidateParallel call.", "ns")
)

// Pipeline (multi-block validator workflow, internal/pipeline). The four
// paper phases are measured inside ValidateParallel, one after the other.
var (
	PipelinePrepareSeconds = NewHistogram("blockpilot_pipeline_prepare_duration_ns",
		"Phase 1 (preparation): profile → writer index.", "ns")
	PipelineExecuteSeconds = NewHistogram("blockpilot_pipeline_execute_duration_ns",
		"Phase 2 (transaction execution): first spawn → last lane finished.", "ns")
	PipelineValidateSeconds = NewHistogram("blockpilot_pipeline_validate_duration_ns",
		"Phase 3 (block validation): the applier's block-order walk of the result array.", "ns")
	PipelineCommitSeconds = NewHistogram("blockpilot_pipeline_commit_duration_ns",
		"Phase 4 (block commitment): root checks + state commit.", "ns")
	PipelineBlockSeconds = NewHistogram("blockpilot_pipeline_block_duration_ns",
		"Pipeline residency per block: submission → commitment outcome.", "ns")
	PipelineInflight = NewGauge("blockpilot_pipeline_blocks_inflight",
		"Blocks currently validating across all pipeline instances.")
	PipelineWaiting = NewGauge("blockpilot_pipeline_blocks_waiting",
		"Blocks parked behind a parent that has not validated yet.")
	PipelineQueueDepth = NewGauge("blockpilot_pipeline_queue_depth",
		"Shared worker-pool task queue depth (most recent observation).")
)

// State commit path (internal/state parallel commit & Merkle root hashing).
// Observed by chain.CommitAndRoot at every seal/verify call site — proposer
// seal, validator commitment, serial processor.
var (
	StateCommitSeconds = NewHistogram("blockpilot_state_commit_duration_ns",
		"World-state commit time: change-set → new snapshot (storage tries + accounts trie).", "ns")
	StateRootHashSeconds = NewHistogram("blockpilot_state_root_hash_duration_ns",
		"Merkle state-root computation time over the freshly committed snapshot.", "ns")
	StateCommitAccounts = NewHistogram("blockpilot_state_commit_accounts",
		"Accounts updated per state commit (parallel fan-out width).", "")
	StateCommitStorageTries = NewHistogram("blockpilot_state_commit_storage_tries",
		"Contract storage tries rebuilt per state commit (per-account fan-out).", "")
)

// The phases of one state commit, observed by state.Snapshot.CommitParallel
// inside the StateCommitSeconds span: resolve and insert on both backends,
// hash, persist and barrier on the disk backend only. The release of a disk
// root is timed by trie.Database.Release.
var (
	StateCommitResolveSeconds = NewHistogram("blockpilot_state_commit_resolve_ns",
		"State commit phase: every account resolved against the parent (lookup, storage trie, leaf).", "ns")
	StateCommitInsertSeconds = NewHistogram("blockpilot_state_commit_insert_ns",
		"State commit phase: resolved accounts installed and batch-inserted into the accounts trie.", "ns")
	StateCommitHashSeconds = NewHistogram("blockpilot_state_commit_hash_ns",
		"State commit phase (disk backend): accounts-trie hash before the persist walk.", "ns")
	StateCommitPersistSeconds = NewHistogram("blockpilot_state_commit_persist_ns",
		"State commit phase (disk backend): storage tries, code and accounts trie staged into the batch.", "ns")
	StateCommitBarrierSeconds = NewHistogram("blockpilot_state_commit_barrier_ns",
		"State commit phase (disk backend): the batch written behind its durability barrier and anchored.", "ns")
	StateReleaseSeconds = NewHistogram("blockpilot_state_release_ns",
		"Disk backend: one state root released, every node only it kept pruned behind a release barrier.", "ns")
)

// Mempool and network fabric.
var (
	MempoolPending = NewGauge("blockpilot_mempool_pending",
		"Pending transactions in the most recently touched pool.")
	MempoolReplacements = NewCounter("blockpilot_mempool_replacements_total",
		"Same-(sender,nonce) transactions replaced by a price-bumped arrival.")
	MempoolPopBatchSize = NewHistogram("blockpilot_mempool_pop_batch_size",
		"Executable transactions returned per PopBatch call (lock amortization factor).", "")
	NetworkMessages = NewCounter("blockpilot_network_messages_total",
		"Broadcast messages delivered to node inboxes.")
	NetworkDropped = NewCounter("blockpilot_network_dropped_total",
		"Broadcast messages dropped at a full (slow-consumer) inbox.")
	NetworkFaultDrops = NewCounter("blockpilot_network_fault_drops_total",
		"Broadcast messages dropped by an injected link fault.")
	NetworkFaultDups = NewCounter("blockpilot_network_fault_dups_total",
		"Broadcast messages duplicated by an injected link fault.")
	NetworkFaultReorders = NewCounter("blockpilot_network_fault_reorders_total",
		"Broadcast messages held back for reordering by an injected link fault.")
	NetworkPartitionBlocked = NewCounter("blockpilot_network_partition_blocked_total",
		"Broadcast messages blocked by an active network partition.")
)

// Contention-adaptive scheduling (internal/adaptive): the flight-recorder
// feedback loop's online decisions.
var (
	AdaptiveSerialLaneTxs = NewCounter("blockpilot_adaptive_serial_lane_txs_total",
		"Transactions diverted from the parallel pool into the hot-key serial lane.")
	AdaptiveMergedCredits = NewCounter("blockpilot_adaptive_merged_credits_total",
		"Pure balance credits to hot accounts folded through the commutative delta accumulator.")
	AdaptiveDemotedSenders = NewCounter("blockpilot_adaptive_demoted_senders_total",
		"Senders de-prioritized by the mempool's abort-EWMA ordering (0→demoted transitions).")
	AdaptiveHotAccounts = NewGauge("blockpilot_adaptive_hot_accounts",
		"Accounts in the currently published hot set (serial-lane routing table size).")
	AdaptiveLaneOccupancy = NewFloatGauge("blockpilot_adaptive_lane_occupancy",
		"Fraction of the last block's committed transactions that went through the serial lane.")
)

// DerivedStats computes the evaluation-facing rates the paper reports from
// a snapshot: abort rate, drop rate, reject rate, and per-phase latency
// quantiles in milliseconds. Printed by the telemetry report and emitted by
// `bpbench -json`.
func DerivedStats(s *Snapshot) map[string]float64 {
	d := make(map[string]float64)
	commits := s.Counter("blockpilot_proposer_commits_total")
	aborts := s.Counter("blockpilot_proposer_aborts_total")
	if attempts := commits + aborts; attempts > 0 {
		d["proposer_abort_rate"] = aborts / attempts
	}
	if popped := commits + s.Counter("blockpilot_proposer_drops_total"); popped > 0 {
		d["proposer_drop_rate"] = s.Counter("blockpilot_proposer_drops_total") / popped
	}
	accepted := s.Counter("blockpilot_validator_blocks_total")
	rejected := s.Counter("blockpilot_validator_rejects_total")
	if total := accepted + rejected; total > 0 {
		d["validator_reject_rate"] = rejected / total
	}
	const ms = 1e6 // ns → ms
	for _, name := range []string{
		"blockpilot_pipeline_prepare_duration_ns",
		"blockpilot_pipeline_execute_duration_ns",
		"blockpilot_pipeline_validate_duration_ns",
		"blockpilot_pipeline_commit_duration_ns",
		"blockpilot_pipeline_block_duration_ns",
		"blockpilot_proposer_block_duration_ns",
		"blockpilot_state_commit_duration_ns",
		"blockpilot_state_root_hash_duration_ns",
	} {
		h := s.Histogram(name)
		if h == nil || h.Count == 0 {
			continue
		}
		key := name[len("blockpilot_") : len(name)-len("_duration_ns")]
		d[key+"_p50_ms"] = h.P50 / ms
		d[key+"_p90_ms"] = h.P90 / ms
		d[key+"_mean_ms"] = h.Mean() / ms
	}
	return d
}
