package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"blockpilot/internal/chain"
	"blockpilot/internal/consensus"
	"blockpilot/internal/core"
	"blockpilot/internal/crypto"
	"blockpilot/internal/mempool"
	"blockpilot/internal/network"
	"blockpilot/internal/pipeline"
	"blockpilot/internal/state"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
	"blockpilot/internal/validator"
	"blockpilot/internal/workload"
)

// hopLatency is the propagation delay injected on every network hop. No
// faults are configured: fault behaviour stays with internal/sim's oracles.
const hopLatency = 200 * time.Microsecond

// options are the run parameters shared by every workload.
type options struct {
	seed    int64
	threads int
	engine  string
	outDir  string // the only directory the benchmark writes to
}

// cluster is the node loop of cmd/blockpilot driven from outside: one
// proposer endpoint (holding every proposer identity), one validator
// endpoint, the fabric between them, and a chain per side.
type cluster struct {
	spec   spec
	opt    options
	params chain.Params

	gen   *workload.Generator
	sched *consensus.Engine

	prop *chain.Chain // proposer side: every sibling, inserted from its ProposeResult
	val  *chain.Chain // validator side: what the pipeline committed
	pipe *pipeline.Pipeline

	fabric *network.Network
	out    *network.Node // proposer endpoint
	in     *network.Node // validator endpoint

	// Disk backend: one store per side, as on separate machines.
	dir           string
	propDB, valDB *trie.Database
	window        []types.Hash        // canonical roots still anchored, oldest first
	pinned        map[types.Hash]bool // roots phase B still needs; never released

	round  int
	digest *crypto.Keccak // running Keccak over every generated tx encoding
}

// newCluster performs one full set-up: genesis, stores, chains, pipeline
// and fabric. Everything it does is charged to setup_s.
func newCluster(s spec, opt options) (*cluster, error) {
	cfg := s.mix()
	cfg.Seed = opt.seed
	c := &cluster{
		spec:   s,
		opt:    opt,
		params: chain.DefaultParams(),
		gen:    workload.New(cfg),
		digest: crypto.NewKeccak(),
		pinned: make(map[types.Hash]bool),
	}
	ids := make([]types.Address, s.proposers)
	for i := range ids {
		ids[i] = types.HexToAddress(fmt.Sprintf("0x%040x", 0xABC0+i))
	}
	c.sched = consensus.NewEngine(opt.seed, ids, s.forkProb, s.maxForks)

	propGenesis, valGenesis, err := c.genesis()
	if err != nil {
		c.close()
		return nil, err
	}
	c.prop = chain.NewChain(propGenesis, c.params)
	c.val = chain.NewChain(valGenesis, c.params)
	c.pipe = pipeline.New(c.val, validator.DefaultConfig(opt.threads), nil)
	c.fabric = network.New(hopLatency)
	c.out = c.fabric.Join("proposer", 64)
	c.in = c.fabric.Join("validator", 64)
	return c, nil
}

// genesis builds the genesis state once and hands each side its own copy:
// a shared-structure Copy on the mem backend, a copied store file reopened
// with state.OpenSnapshot on the disk backend.
func (c *cluster) genesis() (prop, val *state.Snapshot, err error) {
	if !c.spec.disk {
		g := c.gen.GenesisState()
		return g, g.Copy(), nil
	}
	if err := os.MkdirAll(c.opt.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	if c.dir, err = os.MkdirTemp(c.opt.outDir, "state-"+c.spec.name+"-"); err != nil {
		return nil, nil, err
	}
	seedPath := filepath.Join(c.dir, "genesis.db")
	db, err := trie.OpenDatabase(seedPath, c.spec.cacheNodes)
	if err != nil {
		return nil, nil, err
	}
	root := c.gen.GenesisStateInto(db, 0).Root()
	if err := db.Close(); err != nil {
		return nil, nil, fmt.Errorf("close genesis store: %w", err)
	}
	open := func(name string) (*trie.Database, *state.Snapshot, error) {
		path := filepath.Join(c.dir, name)
		if err := copyFile(seedPath, path); err != nil {
			return nil, nil, err
		}
		db, err := trie.OpenDatabase(path, c.spec.cacheNodes)
		if err != nil {
			return nil, nil, err
		}
		snap, err := state.OpenSnapshot(db, root)
		if err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, snap, nil
	}
	if c.propDB, prop, err = open("proposer.db"); err != nil {
		return nil, nil, err
	}
	if c.valDB, val, err = open("validator.db"); err != nil {
		return nil, nil, err
	}
	if err := os.Remove(seedPath); err != nil {
		return nil, nil, err
	}
	c.window = append(c.window, root)
	return prop, val, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// close stops the fabric and the pipeline, closes the stores and removes
// the cluster's scratch directory. Safe on a partially built cluster.
func (c *cluster) close() error {
	if c.fabric != nil {
		c.fabric.Close()
	}
	if c.pipe != nil {
		c.pipe.Close()
	}
	var first error
	for _, db := range []*trie.Database{c.propDB, c.valDB} {
		if db != nil {
			if err := db.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if c.dir != "" {
		if err := os.RemoveAll(c.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// roundSample is what one closed-loop round measured and checked.
type roundSample struct {
	round    time.Duration   // AddAll start → last block of the round committed on the validator
	propose  []time.Duration // one per elected proposer
	validate []time.Duration // pipeline.Outcome.Elapsed, one per block
	transit  []time.Duration // Broadcast → validator inbox, one per block
	window   time.Duration   // first Submit → last Outcome
	sync     time.Duration   // disk backend: store fsync after the validator commit

	admitted  int // transactions generated and handed to AddAll
	canonical int // transactions in the block the validator made head
	blocks    int
	rejected  int // blocks the pipeline refused
	mismatch  int // rounds whose proposer-side and validator-side head roots differ

	aborts, dropped, committed int // summed ProposeResult stats
	wireBytes                  int

	// Replay material for phase B (kept by the traced run only).
	parent       *state.Snapshot
	parentHeader *types.Header
	txs          []*types.Transaction
	decoded      []*types.Block
}

// step runs one round: generate → AddAll → Propose (each elected proposer,
// on the validator's current head) → Encode → Decode → Broadcast → inbox →
// pipeline.Submit → Outcome. rec may be nil (the timed run records no spans).
func (c *cluster) step(rec *recorder, keep bool) (roundSample, error) {
	var rs roundSample
	r := c.round
	c.round++

	g := rec.open("workload.generate", 0, r, time.Now())
	txs := c.gen.NextBlockTxs()
	for _, tx := range txs {
		c.digest.Write(tx.Encode())
	}
	rec.close(g, time.Now())
	winners := c.sched.ProposersForRound(uint64(r))
	rs.admitted = len(txs)

	head := c.val.Head()
	parent := c.prop.StateOf(head.Hash())
	parentHeader := &c.prop.Block(head.Hash()).Header
	if keep {
		rs.parent, rs.parentHeader, rs.txs = c.val.StateOf(head.Hash()), &head.Header, txs
		c.pinned[head.Header.StateRoot] = true
	}

	// Proposer phase: all threads, nothing else running.
	start := time.Now()
	root := rec.open("round", 0, r, start)
	wire := make([]*types.Block, 0, len(winners))
	for _, coinbase := range winners {
		t0 := time.Now()
		s := rec.open("mempool.add_all", root, r, t0)
		pool := mempool.New()
		pool.AddAll(txs)
		t1 := time.Now()
		rec.close(s, t1)

		s = rec.open("core.propose", root, r, t1)
		res, err := core.Propose(parent, parentHeader, pool, core.ProposerConfig{
			Engine:   c.opt.engine,
			Threads:  c.opt.threads,
			Coinbase: coinbase,
			Time:     uint64(r + 1),
		}, c.params)
		t2 := time.Now()
		rec.close(s, t2)
		if err != nil {
			return rs, fmt.Errorf("round %d: propose: %w", r, err)
		}
		rs.propose = append(rs.propose, t2.Sub(t1))
		rs.aborts += res.Aborts
		rs.dropped += res.Dropped
		rs.committed += res.Committed

		s = rec.open("chain.insert", root, r, t2)
		err = c.prop.InsertWithReceipts(res.Block, res.State, res.Receipts)
		rec.close(s, time.Now())
		if err != nil {
			return rs, fmt.Errorf("round %d: proposer-side insert: %w", r, err)
		}

		// Over the wire: the validator must not inherit proposer-side
		// caches (tx.hash, header hash), so it gets a decoded copy.
		s = rec.open("types.encode", root, r, time.Now())
		enc := res.Block.Encode()
		rec.close(s, time.Now())
		s = rec.open("types.decode", root, r, time.Now())
		blk, err := types.DecodeBlock(enc)
		rec.close(s, time.Now())
		if err != nil {
			return rs, fmt.Errorf("round %d: decode: %w", r, err)
		}
		rs.wireBytes += len(enc)
		wire = append(wire, blk)
	}
	rs.blocks = len(wire)
	if keep {
		rs.decoded = wire
	}

	// Broadcast only after all packing, then the validator phase.
	sent := make([]time.Time, len(wire))
	for i, blk := range wire {
		sent[i] = time.Now()
		c.out.Broadcast(blk)
	}
	var firstSubmit time.Time
	for i := range wire {
		msg, ok := <-c.in.Inbox()
		if !ok {
			return rs, fmt.Errorf("round %d: validator inbox closed", r)
		}
		now := time.Now()
		rec.add("network.transit", root, r, sent[i], now)
		rs.transit = append(rs.transit, now.Sub(sent[i]))
		if i == 0 {
			firstSubmit = now
		}
		c.pipe.Submit(msg.Block)
	}
	for range wire {
		out := <-c.pipe.Results()
		if out.Err != nil {
			rs.rejected++
			fmt.Fprintf(os.Stderr, "round %d: block %s rejected: %v\n", r, out.Block.Hash(), out.Err)
			continue
		}
		rs.validate = append(rs.validate, out.Elapsed)
	}
	lastOutcome := time.Now()
	rs.window = lastOutcome.Sub(firstSubmit)
	rec.add("pipeline.validate", root, r, firstSubmit, lastOutcome)

	if c.spec.disk {
		// "Committed" means durable: fsync the validator store inside the
		// round, so turning store.Options.Sync on later is not a regression.
		s := rec.open("store.sync", root, r, lastOutcome)
		err := c.valDB.Store().Sync()
		now := time.Now()
		rec.close(s, now)
		if err != nil {
			return rs, fmt.Errorf("round %d: sync: %w", r, err)
		}
		rs.sync = now.Sub(lastOutcome)
	}
	end := time.Now()
	rs.round = end.Sub(start)
	rec.close(root, end)

	// Output check, off the round clock: both sides agree on the head.
	newHead := c.val.Head()
	if newHead.Number() == head.Number()+1 {
		rs.canonical = len(newHead.Txs)
	}
	propState := c.prop.StateOf(newHead.Hash())
	if propState == nil || propState.Root() != c.val.HeadState().Root() || newHead.Number() != uint64(r+1) {
		rs.mismatch = 1
		fmt.Fprintf(os.Stderr, "round %d: proposer-side and validator-side heads differ\n", r)
	}
	if c.spec.disk {
		if err := c.prune(newHead.Header.StateRoot); err != nil {
			return rs, fmt.Errorf("round %d: %w", r, err)
		}
	}
	return rs, nil
}

// prune slides the live-root window on both stores.
func (c *cluster) prune(root types.Hash) error {
	c.window = append(c.window, root)
	for len(c.window) > keepRoots {
		old := c.window[0]
		c.window = c.window[1:]
		if err := c.propDB.Release([32]byte(old)); err != nil {
			return fmt.Errorf("release proposer root: %w", err)
		}
		if c.pinned[old] {
			continue
		}
		if err := c.valDB.Release([32]byte(old)); err != nil {
			return fmt.Errorf("release validator root: %w", err)
		}
	}
	return nil
}

// reopenCheck closes the validator store, reopens it and reads 100 sampled
// accounts back through state.OpenSnapshot at the head root: what a
// restarted node would do. It returns the number of failed checks.
func (c *cluster) reopenCheck() int {
	if !c.spec.disk {
		return 0
	}
	head := c.val.Head()
	live := c.val.HeadState()
	accounts := c.gen.Accounts()
	stride := max(len(accounts)/100, 1)
	type expect struct {
		addr    types.Address
		nonce   uint64
		balance uint256.Int
	}
	var want []expect
	for i := 0; i < len(accounts); i += stride {
		a := accounts[i]
		want = append(want, expect{a, live.Nonce(a), live.Balance(a)})
	}

	path := c.valDB.Store().Path()
	err := c.valDB.Close()
	c.valDB = nil
	if err != nil {
		fmt.Fprintln(os.Stderr, "reopen check: close:", err)
		return 1
	}
	db, err := trie.OpenDatabase(path, c.spec.cacheNodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reopen check: open:", err)
		return 1
	}
	defer db.Close()
	got, err := state.OpenSnapshot(db, head.Header.StateRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reopen check:", err)
		return 1
	}
	failed := 0
	for _, w := range want {
		gb := got.Balance(w.addr)
		if got.Nonce(w.addr) != w.nonce || !gb.Eq(&w.balance) {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "reopen check: %d of %d sampled accounts differ\n", failed, len(want))
	}
	return failed
}
