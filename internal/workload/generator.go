package workload

import (
	"encoding/binary"
	"math/rand"

	"blockpilot/internal/state"
	"blockpilot/internal/trie"
	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Config parameterizes the synthetic workload.
type Config struct {
	Seed        int64
	NumAccounts int // externally-owned accounts
	NumTokens   int // ERC-20-like token contracts
	NumPairs    int // AMM pair contracts (the hotspot population)
	NumMixers   int // per-sender counter contracts (embarrassingly parallel)
	TxPerBlock  int // paper: real blocks average 132 transactions

	// Transaction mix (fractions of a block; the remainder is token
	// transfers). SwapRatio controls hotspot pressure: every swap on one
	// pair conflicts with every other swap on that pair. DeployRatio adds
	// contract-creation transactions (default 0: the calibrated mix
	// matches the paper's replayed blocks, which predate deploy-heavy eras).
	NativeRatio float64
	SwapRatio   float64
	MixerRatio  float64
	DeployRatio float64

	// ZipfS skews pair popularity (s > 1; higher = more concentrated).
	ZipfS float64
	// TokenZipfS skews token popularity: the hot token's transfers all
	// touch the same contract account (false sharing at account-level
	// conflict detection) while remaining mostly parallel at slot level —
	// the asymmetry that lets proposers outscale validators (paper §5.3).
	TokenZipfS float64
	// HotRecipientRatio is the share of token transfers that pay one
	// popular deposit address (a true storage-slot conflict chain).
	HotRecipientRatio float64

	// TokenHolders caps how many EOAs get a seeded balance in each token
	// (0 = every account). At millions of accounts the default would mint
	// NumTokens × NumAccounts storage slots at genesis — the cap keeps
	// genesis linear in NumAccounts while the transfer traffic still spans
	// the whole population (transfers to unseeded holders simply create
	// their slot).
	TokenHolders int

	// Compute padding per contract call, in spin-loop iterations.
	SpinMin, SpinMax int

	// Source, when non-nil, supplies the generator's randomness instead of
	// rand.NewSource(Seed). Injecting an explicit source lets harnesses
	// (internal/sim) derive independent deterministic streams from one run
	// seed; the (Source, call sequence) pair fully determines the tx stream.
	Source rand.Source
}

// Default returns the calibrated mainnet-like configuration: the resulting
// blocks average a largest-dependency-subgraph of ≈23-25 % of the block at
// account granularity, matching paper Fig. 8.
func Default() Config {
	return Config{
		Seed:              1,
		NumAccounts:       2600,
		NumTokens:         24,
		NumPairs:          10,
		NumMixers:         8,
		TxPerBlock:        132,
		NativeRatio:       0.22,
		SwapRatio:         0.18,
		MixerRatio:        0.13,
		ZipfS:             2.0,
		TokenZipfS:        1.45,
		HotRecipientRatio: 0.35,
		// Calibrated (a) so contract execution dominates block time the way
		// it does for real mainnet blocks on a warmed (prefetched) state —
		// otherwise the serial commit/root phase caps parallel speedup well
		// below what the paper observes — and (b) so the largest dependency
		// subgraph averages ≈27.5 % of a block (paper Fig. 8).
		SpinMin: 500,
		SpinMax: 4000,
	}
}

// Generator produces a deterministic stream of blocks' worth of
// transactions over a fixed genesis population.
type Generator struct {
	cfg       Config
	rng       *rand.Rand
	zipf      *rand.Zipf
	tokenZipf *rand.Zipf
	accounts  []types.Address
	tokens    []types.Address
	pairs     []types.Address
	mixers    []types.Address
	nonces    map[types.Address]uint64
}

// New creates a generator. The same (Config, call sequence) always yields
// the same transactions: byte-identical encodings, block after block (the
// determinism the sim's seed-replay repro lines depend on).
func New(cfg Config) *Generator {
	src := cfg.Source
	if src == nil {
		src = rand.NewSource(cfg.Seed)
	}
	rng := rand.New(src)
	tokenS := cfg.TokenZipfS
	if tokenS <= 1 {
		tokenS = 1.0001 // ≈uniform-ish fallback; rand.NewZipf requires s > 1
	}
	g := &Generator{
		cfg:       cfg,
		rng:       rng,
		zipf:      rand.NewZipf(rng, cfg.ZipfS, 1, uint64(max(cfg.NumPairs-1, 0))),
		tokenZipf: rand.NewZipf(rng, tokenS, 1, uint64(max(cfg.NumTokens-1, 0))),
		nonces:    make(map[types.Address]uint64),
	}
	g.accounts = deriveAddresses("eoa", cfg.NumAccounts)
	g.tokens = deriveAddresses("token", cfg.NumTokens)
	g.pairs = deriveAddresses("pair", cfg.NumPairs)
	g.mixers = deriveAddresses("mixer", cfg.NumMixers)
	return g
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// deriveAddresses produces stable, distinct addresses for a population.
func deriveAddresses(kind string, n int) []types.Address {
	out := make([]types.Address, n)
	for i := range out {
		var a types.Address
		copy(a[:], kind)
		binary.BigEndian.PutUint32(a[16:], uint32(i+1))
		out[i] = a
	}
	return out
}

// Accounts returns the EOA population.
func (g *Generator) Accounts() []types.Address { return g.accounts }

// initialEOABalance funds every account far beyond what a run can spend.
const initialEOABalance = 1 << 60

// initialTokenBalance seeds every holder in every token.
const initialTokenBalance = 1 << 40

// initialReserve seeds each AMM pair's two reserves.
const initialReserve = 1 << 40

// tokenHolders returns the slice of EOAs seeded with a balance in every
// token (the whole population unless Config.TokenHolders caps it).
func (g *Generator) tokenHolders() []types.Address {
	h := g.cfg.TokenHolders
	if h <= 0 || h > len(g.accounts) {
		return g.accounts
	}
	return g.accounts[:h]
}

// genesisBuilder assembles the genesis population (shared by the in-memory
// and disk-backed builds so both land on the identical root).
func (g *Generator) genesisBuilder() *state.GenesisBuilder {
	b := state.NewGenesisBuilder()
	for _, a := range g.accounts {
		b.AddAccount(a, uint256.NewInt(initialEOABalance))
	}
	holders := g.tokenHolders()
	for _, t := range g.tokens {
		storage := make(map[types.Hash]uint256.Int, len(holders))
		for _, holder := range holders {
			storage[holder.Hash()] = *uint256.NewInt(initialTokenBalance)
		}
		b.AddContract(t, uint256.NewInt(0), TokenCode, storage)
	}
	for _, p := range g.pairs {
		storage := map[types.Hash]uint256.Int{
			types.BytesToHash(nil):       *uint256.NewInt(initialReserve),
			types.BytesToHash([]byte{1}): *uint256.NewInt(initialReserve),
		}
		b.AddContract(p, uint256.NewInt(0), PairCode, storage)
	}
	for _, m := range g.mixers {
		b.AddContract(m, uint256.NewInt(0), MixerCode, nil)
	}
	return b
}

// GenesisState builds the genesis world state for the population.
func (g *Generator) GenesisState() *state.Snapshot {
	return g.genesisBuilder().Build()
}

// GenesisStateInto builds the genesis world state on the disk backend,
// committing in bounded chunks (0 = default) so a millions-of-accounts
// population never holds more than one chunk's trie growth in memory. The
// resulting root is identical to GenesisState's.
func (g *Generator) GenesisStateInto(db *trie.Database, chunk int) *state.Snapshot {
	return g.genesisBuilder().BuildInto(db, chunk)
}

// word encodes v as a 32-byte calldata word.
func word(v uint64) []byte {
	var b [32]byte
	binary.BigEndian.PutUint64(b[24:], v)
	return b[:]
}

func addrWord(a types.Address) []byte {
	h := a.Hash()
	return h[:]
}

// spin picks the compute padding for one contract call.
func (g *Generator) spin() uint64 {
	if g.cfg.SpinMax <= g.cfg.SpinMin {
		return uint64(g.cfg.SpinMin)
	}
	return uint64(g.cfg.SpinMin + g.rng.Intn(g.cfg.SpinMax-g.cfg.SpinMin))
}

// sender picks a random EOA and consumes its next nonce.
func (g *Generator) sender() (types.Address, uint64) {
	a := g.accounts[g.rng.Intn(len(g.accounts))]
	n := g.nonces[a]
	g.nonces[a] = n + 1
	return a, n
}

func (g *Generator) gasPrice() uint256.Int {
	var p uint256.Int
	p.SetUint64(uint64(1 + g.rng.Intn(100)))
	return p
}

// NextBlockTxs generates the next block's worth of transactions.
func (g *Generator) NextBlockTxs() []*types.Transaction {
	txs := make([]*types.Transaction, 0, g.cfg.TxPerBlock)
	for i := 0; i < g.cfg.TxPerBlock; i++ {
		roll := g.rng.Float64()
		switch {
		case roll < g.cfg.NativeRatio:
			txs = append(txs, g.nativeTransfer())
		case roll < g.cfg.NativeRatio+g.cfg.SwapRatio:
			txs = append(txs, g.swap())
		case roll < g.cfg.NativeRatio+g.cfg.SwapRatio+g.cfg.MixerRatio:
			txs = append(txs, g.mixerCall())
		case roll < g.cfg.NativeRatio+g.cfg.SwapRatio+g.cfg.MixerRatio+g.cfg.DeployRatio:
			txs = append(txs, g.deploy())
		default:
			txs = append(txs, g.tokenTransfer())
		}
	}
	return txs
}

// deploy creates a fresh counter contract (conflict-free with everything
// except the deployer's own account).
func (g *Generator) deploy() *types.Transaction {
	from, nonce := g.sender()
	tx := &types.Transaction{
		Nonce:          nonce,
		Gas:            500_000,
		Data:           CounterInitCode,
		From:           from,
		CreateContract: true,
	}
	tx.GasPrice = g.gasPrice()
	return tx
}

// nativeTransfer moves a little value between two EOAs.
func (g *Generator) nativeTransfer() *types.Transaction {
	from, nonce := g.sender()
	to := g.accounts[g.rng.Intn(len(g.accounts))]
	tx := &types.Transaction{
		Nonce: nonce,
		Gas:   21000,
		To:    to,
		From:  from,
	}
	tx.GasPrice = g.gasPrice()
	tx.Value.SetUint64(uint64(1 + g.rng.Intn(1000)))
	return tx
}

// tokenTransfer calls a Zipf-chosen token contract; a share of transfers
// pays the popular deposit address (exchange-like hot recipient).
func (g *Generator) tokenTransfer() *types.Transaction {
	from, nonce := g.sender()
	token := g.tokens[int(g.tokenZipf.Uint64())]
	to := g.accounts[g.rng.Intn(len(g.accounts))]
	if g.rng.Float64() < g.cfg.HotRecipientRatio {
		to = g.accounts[0]
	}
	data := make([]byte, 0, 96)
	data = append(data, addrWord(to)...)
	data = append(data, word(uint64(1+g.rng.Intn(100)))...)
	data = append(data, word(g.spin())...)
	tx := &types.Transaction{
		Nonce: nonce,
		Gas:   500_000,
		To:    token,
		Data:  data,
		From:  from,
	}
	tx.GasPrice = g.gasPrice()
	return tx
}

// swap trades against a Zipf-chosen AMM pair: the hotspot traffic.
func (g *Generator) swap() *types.Transaction {
	from, nonce := g.sender()
	pair := g.pairs[int(g.zipf.Uint64())]
	data := make([]byte, 0, 96)
	data = append(data, word(uint64(g.rng.Intn(2)))...)
	data = append(data, word(uint64(1+g.rng.Intn(1_000_000)))...)
	data = append(data, word(g.spin())...)
	tx := &types.Transaction{
		Nonce: nonce,
		Gas:   500_000,
		To:    pair,
		Data:  data,
		From:  from,
	}
	tx.GasPrice = g.gasPrice()
	return tx
}

// mixerCall bumps the sender's private counter: conflict-free filler.
func (g *Generator) mixerCall() *types.Transaction {
	from, nonce := g.sender()
	mixer := g.mixers[g.rng.Intn(len(g.mixers))]
	data := make([]byte, 0, 96)
	data = append(data, word(0)...)
	data = append(data, word(0)...)
	data = append(data, word(g.spin())...)
	tx := &types.Transaction{
		Nonce: nonce,
		Gas:   500_000,
		To:    mixer,
		Data:  data,
		From:  from,
	}
	tx.GasPrice = g.gasPrice()
	return tx
}
