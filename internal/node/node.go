// Package node assembles one BlockPilot node (paper §1): a chain, the
// pending-transaction pool it packs from when elected, and the validation
// pipeline it runs every other block through. Every front end — the
// blockpilot binary, the cluster simulator, bpinspect and the root facade —
// builds its proposers and validators here, so a node-wide policy (its name,
// its trace collector, its worker pool, its proposer engine) is set once.
package node

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"blockpilot/internal/adaptive"
	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/mempool"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/state"
	"blockpilot/internal/trace"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// Config describes one node.
type Config struct {
	// Name identifies the node in block-trace spans: its seal spans, its
	// validation spans and its insert marks. "" keeps the packages' defaults,
	// "proposer" when it proposes and "validator" when it validates.
	Name     string
	Genesis  *state.Snapshot
	Params   chain.Params
	Threads  int // proposer workers and validator lanes
	Coinbase types.Address
	// Engine is the proposer engine (core.EngineOCCWSI when "").
	Engine string
	// Adaptive attaches a contention controller to every Propose; nil runs
	// the engine stock.
	Adaptive *adaptive.Controller
	// Workers is a worker pool shared with other pipelines; the node does
	// not close it. Nil gives the pipeline its own pool of Threads workers.
	Workers *pipeline.WorkerPool
	// Tracer is the node's block-trace collector; nil falls back to the
	// process-global one.
	Tracer *trace.Collector
}

// Node is a chain with its pool and pipeline. Blocks it proposes go into
// Chain directly; blocks from other nodes go through Pipe.
type Node struct {
	Chain *chain.Chain
	Pool  *mempool.Pool
	Pipe  *pipeline.Pipeline
	cfg   Config
}

// New builds a node over cfg.Genesis.
func New(cfg Config) *Node {
	c := chain.NewChain(cfg.Genesis, cfg.Params)
	vcfg := validator.DefaultConfig(cfg.Threads)
	vcfg.Node, vcfg.Tracer = cfg.Name, cfg.Tracer
	return &Node{
		Chain: c,
		Pool:  mempool.New(),
		Pipe:  pipeline.New(c, vcfg, cfg.Workers),
		cfg:   cfg,
	}
}

// Propose packs a block on the head from the node's pool, timestamped with
// its height, and inserts it with its post-state and receipts. The node
// built the block, so it does not validate it again; transactions that did
// not fit stay in the pool for the next Propose.
func (n *Node) Propose() (*core.ProposeResult, error) {
	head := n.Chain.Head()
	res, err := core.Propose(n.Chain.StateOf(head.Hash()), &head.Header, n.Pool, core.ProposerConfig{
		Threads:  n.cfg.Threads,
		Coinbase: n.cfg.Coinbase,
		Time:     head.Number() + 1,
		Engine:   n.cfg.Engine,
		Node:     n.cfg.Name,
		Tracer:   n.cfg.Tracer,
		Adaptive: n.cfg.Adaptive,
	}, n.Chain.Params())
	if err != nil {
		return nil, err
	}
	if err := n.Chain.InsertWithReceipts(res.Block, res.State, res.Receipts); err != nil {
		return nil, fmt.Errorf("node: insert own block: %w", err)
	}
	if tr := trace.Resolve(n.cfg.Tracer); tr != nil {
		name := n.cfg.Name
		if name == "" {
			name = "proposer"
		}
		now := time.Now()
		tr.RecordSpan(name, trace.StageInsert, res.Block.Hash(), res.Block.Number(), now, now)
	}
	return res, nil
}

// Close waits for the pipeline's in-flight blocks, fails the ones whose
// parent never arrived and closes Pipe.Results. A shared Workers pool stays
// open.
func (n *Node) Close() { n.Pipe.Close() }

// State backend names (OpenGenesis, -state-backend).
const (
	BackendMem  = "mem"
	BackendDisk = "disk"
)

// OpenGenesis builds gen's genesis state on a backend: BackendMem keeps it in
// process maps, BackendDisk commits it to a node store in dir/state.db ("" =
// a temporary directory). The closer releases the store and removes a
// temporary directory; every node built on the snapshot must be done first.
func OpenGenesis(gen *workload.Generator, backend, dir string) (*state.Snapshot, func() error, error) {
	switch backend {
	case BackendMem:
		return gen.GenesisState(), func() error { return nil }, nil
	case BackendDisk:
	default:
		return nil, nil, fmt.Errorf("node: unknown state backend %q (want %s|%s)", backend, BackendMem, BackendDisk)
	}
	tmp := ""
	if dir == "" {
		var err error
		if tmp, err = os.MkdirTemp("", "blockpilot-state-*"); err != nil {
			return nil, nil, err
		}
		dir = tmp
	}
	db, err := trie.OpenDatabase(filepath.Join(dir, "state.db"), 0)
	if err != nil {
		if tmp != "" {
			os.RemoveAll(tmp)
		}
		return nil, nil, err
	}
	closer := func() error {
		err := db.Close()
		if tmp != "" {
			if rmErr := os.RemoveAll(tmp); err == nil {
				err = rmErr
			}
		}
		return err
	}
	return gen.GenesisStateInto(db, 0), closer, nil
}
