package chain

import (
	"errors"
	"fmt"
	"sync"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
)

// StateWindow is how many heights below its head a Chain keeps post-states,
// receipts and index entries for: a block waits only for its parent, and
// forks are siblings at one height (paper §3.4).
const StateWindow = 64

// ErrStatePruned reports a block on a parent, or at a height, below the window.
var ErrStatePruned = errors.New("chain: state pruned below the window")

// Chain stores blocks, the fork structure and, for the StateWindow heights
// below the head, post-states, receipts and the tx index. Because validators
// in a Byzantine network receive multiple blocks per height (paper §3.4),
// the container indexes all blocks at every height, not just a canonical
// spine; the head is the first block validated at the greatest height. When
// the head reaches n, the blocks at n−StateWindow−1 keep only their place in
// Block and BlocksAt, and an insert at such a height fails with
// ErrStatePruned: a deeper re-org is an error.
//
// Chain is safe for concurrent use; the validator pipeline inserts from
// several goroutines.
type Chain struct {
	mu       sync.RWMutex
	params   Params
	genesis  *types.Block
	blocks   map[types.Hash]*types.Block
	states   map[types.Hash]*state.Snapshot
	receipts map[types.Hash][]*types.Receipt // block hash → receipts
	txIndex  map[types.Hash]TxLocation       // tx hash → canonical location
	byHeight map[uint64][]types.Hash
	head     types.Hash
}

// TxLocation records where a transaction landed.
type TxLocation struct {
	BlockHash types.Hash
	Height    uint64
	Index     int
}

// NewChain creates a chain from a genesis state.
func NewChain(genesisState *state.Snapshot, params Params) *Chain {
	genesis := &types.Block{Header: types.Header{
		Number:    0,
		StateRoot: genesisState.Root(),
		GasLimit:  params.GasLimit,
		Extra:     []byte("blockpilot-genesis"),
	}}
	c := &Chain{
		params:   params,
		genesis:  genesis,
		blocks:   make(map[types.Hash]*types.Block),
		states:   make(map[types.Hash]*state.Snapshot),
		receipts: make(map[types.Hash][]*types.Receipt),
		txIndex:  make(map[types.Hash]TxLocation),
		byHeight: make(map[uint64][]types.Hash),
	}
	gh := genesis.Hash()
	c.blocks[gh] = genesis
	c.states[gh] = genesisState
	c.byHeight[0] = []types.Hash{gh}
	c.head = gh
	return c
}

// Params returns the chain parameters.
func (c *Chain) Params() Params { return c.params }

// Genesis returns the genesis block.
func (c *Chain) Genesis() *types.Block { return c.genesis }

// Head returns the current head block (greatest validated height,
// first-validated wins ties — the fork-choice rule forks resolve under).
func (c *Chain) Head() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[c.head]
}

// HeadState returns the post-state of the head block.
func (c *Chain) HeadState() *state.Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.states[c.head]
}

// Block returns a block by hash (nil if unknown).
func (c *Chain) Block(h types.Hash) *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[h]
}

// StateOf returns the post-state of a block (nil if unknown or pruned).
func (c *Chain) StateOf(h types.Hash) *state.Snapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.states[h]
}

// BlocksAt returns every validated block at a height (forks included).
func (c *Chain) BlocksAt(height uint64) []*types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	hashes := c.byHeight[height]
	out := make([]*types.Block, len(hashes))
	for i, h := range hashes {
		out[i] = c.blocks[h]
	}
	return out
}

// Height returns the head height.
func (c *Chain) Height() uint64 {
	return c.Head().Number()
}

// Insert records a validated block and its committed post-state. The parent
// must already be present.
func (c *Chain) Insert(block *types.Block, postState *state.Snapshot) error {
	return c.InsertWithReceipts(block, postState, nil)
}

// InsertWithReceipts additionally stores the block's receipts and, when the
// block extends the canonical head, indexes its transactions for lookup.
func (c *Chain) InsertWithReceipts(block *types.Block, postState *state.Snapshot, receipts []*types.Receipt) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := block.Hash()
	if _, dup := c.blocks[h]; dup {
		return nil // idempotent: forks may deliver a block twice
	}
	if _, ok := c.blocks[block.Header.ParentHash]; !ok {
		return fmt.Errorf("chain: parent %s unknown", block.Header.ParentHash)
	}
	if head := c.blocks[c.head].Number(); head > StateWindow && block.Number() < head-StateWindow {
		return fmt.Errorf("%w: block %d, head %d", ErrStatePruned, block.Number(), head)
	}
	if got := postState.Root(); got != block.Header.StateRoot {
		return fmt.Errorf("chain: post-state root %s does not match header %s", got, block.Header.StateRoot)
	}
	c.blocks[h] = block
	c.states[h] = postState
	if receipts != nil {
		c.receipts[h] = receipts
	}
	c.byHeight[block.Number()] = append(c.byHeight[block.Number()], h)
	if block.Number() > c.blocks[c.head].Number() {
		c.head = h
		for i, tx := range block.Txs {
			c.txIndex[tx.Hash()] = TxLocation{BlockHash: h, Height: block.Number(), Index: i}
		}
		if block.Number() > StateWindow {
			c.pruneLocked(block.Number() - StateWindow - 1)
		}
	}
	return nil
}

// pruneLocked drops the post-states, receipts and index entries of every
// block at height. Caller holds c.mu.
func (c *Chain) pruneLocked(height uint64) {
	for _, h := range c.byHeight[height] {
		delete(c.states, h)
		delete(c.receipts, h)
		for _, tx := range c.blocks[h].Txs {
			if c.txIndex[tx.Hash()].BlockHash == h {
				delete(c.txIndex, tx.Hash())
			}
		}
	}
}

// Receipts returns a block's stored receipts (nil when not recorded).
func (c *Chain) Receipts(blockHash types.Hash) []*types.Receipt {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.receipts[blockHash]
}

// FindTransaction locates a transaction on the canonical chain.
func (c *Chain) FindTransaction(txHash types.Hash) (TxLocation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, ok := c.txIndex[txHash]
	return loc, ok
}

// ReceiptOf returns the canonical receipt for a transaction, if both the
// transaction and its block's receipts are recorded.
func (c *Chain) ReceiptOf(txHash types.Hash) (*types.Receipt, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, ok := c.txIndex[txHash]
	if !ok {
		return nil, false
	}
	rs := c.receipts[loc.BlockHash]
	if loc.Index >= len(rs) {
		return nil, false
	}
	return rs[loc.Index], true
}
