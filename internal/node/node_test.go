package node

import (
	"os"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/core"
	"blockpilot/internal/telemetry"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

var coinbase = types.HexToAddress("0xc01bbace")

func smallWorkload() *workload.Generator {
	cfg := workload.Default()
	cfg.NumAccounts = 400
	cfg.TxPerBlock = 40
	return workload.New(cfg)
}

// TestProposeThenValidate: on both engines, a validator node that takes a
// proposer node's blocks through its pipeline, while the proposer packs the
// next, ends on the proposer's roots. The proposer's head is always the
// block it just packed, and proposing validates nothing.
func TestProposeThenValidate(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	for _, engine := range core.Engines() {
		t.Run(engine, func(t *testing.T) {
			gen := smallWorkload()
			cfg := Config{Genesis: gen.GenesisState(), Params: chain.DefaultParams(), Threads: 4, Coinbase: coinbase, Engine: engine}
			proposer, validator := New(cfg), New(cfg)
			defer proposer.Close()

			roots := make(map[types.Hash]types.Hash)
			before := telemetry.ValidatorBlocks.Value()
			for h := uint64(1); h <= 4; h++ {
				proposer.Pool.AddAll(gen.NextBlockTxs())
				res, err := proposer.Propose()
				if err != nil {
					t.Fatal(err)
				}
				if head := proposer.Chain.Head(); head != res.Block || head.Number() != h || res.Block.Header.Time != h {
					t.Fatalf("height %d: proposer head is block %d (time %d), not its own", h, head.Number(), res.Block.Header.Time)
				}
				roots[res.Block.Hash()] = res.State.Root()
				validator.Pipe.Submit(res.Block)
			}
			validator.Close()
			validated := 0
			for out := range validator.Pipe.Results() {
				if out.Err != nil {
					t.Fatalf("height %d rejected: %v", out.Block.Number(), out.Err)
				}
				if got, want := out.Result.State.Root(), roots[out.Block.Hash()]; got != want {
					t.Fatalf("height %d: validator root %s, proposer root %s", out.Block.Number(), got, want)
				}
				validated++
			}
			if validated != 4 || validator.Chain.Head().Hash() != proposer.Chain.Head().Hash() {
				t.Fatalf("validated %d blocks, validator head %d", validated, validator.Chain.Height())
			}
			// Only the validator's four validations count: Propose validates
			// nothing.
			if got := telemetry.ValidatorBlocks.Value() - before; got != 4 {
				t.Fatalf("blockpilot_validator_blocks_total moved by %d for 4 validated blocks", got)
			}
		})
	}
}

// TestProposeCarriesOverPool: with a gas limit that fits a few transactions,
// what one Propose leaves in the pool is packed by the next, and every
// generated transaction is committed, pending or dropped.
func TestProposeCarriesOverPool(t *testing.T) {
	gen := smallWorkload()
	params := chain.DefaultParams()
	params.GasLimit = 600_000
	n := New(Config{Genesis: gen.GenesisState(), Params: params, Threads: 2, Coinbase: coinbase})
	defer n.Close()

	txs := gen.NextBlockTxs()
	n.Pool.AddAll(txs)
	generated, committed, dropped := len(txs), 0, 0
	for h := 1; h <= 3; h++ {
		pending := n.Pool.Len()
		res, err := n.Propose()
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed == 0 || res.Committed >= pending {
			t.Fatalf("height %d: packed %d of %d pending; the gas limit should split them", h, res.Committed, pending)
		}
		committed += res.Committed
		dropped += res.Dropped
	}
	if got := committed + n.Pool.Len() + dropped; got != generated {
		t.Fatalf("generated %d != committed %d + pending %d + dropped %d", generated, committed, n.Pool.Len(), dropped)
	}
}

// TestOpenGenesis: the disk backend without a directory makes a temporary
// one and its closer removes it; an unknown backend is an error.
func TestOpenGenesis(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	gen := smallWorkload()
	mem, closeMem, err := OpenGenesis(gen, BackendMem, "")
	if err != nil {
		t.Fatal(err)
	}
	defer closeMem()
	disk, closeDisk, err := OpenGenesis(smallWorkload(), BackendDisk, "")
	if err != nil {
		t.Fatal(err)
	}
	if disk.Root() != mem.Root() {
		t.Fatalf("disk genesis root %s, mem %s", disk.Root(), mem.Root())
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 1 {
		t.Fatalf("%d entries under TMPDIR after opening, want the store's directory", len(entries))
	}
	if err := closeDisk(); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Fatalf("closer left %s behind", entries[0].Name())
	}
	if _, _, err := OpenGenesis(gen, "tape", ""); err == nil {
		t.Fatal("unknown backend accepted")
	}
}
