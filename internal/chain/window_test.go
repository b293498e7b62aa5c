package chain

import (
	"errors"
	"sync"
	"testing"

	"blockpilot/internal/state"
	"blockpilot/internal/types"
)

// windowChain grows a chain by heights blocks, each height a canonical
// block and a sibling carrying the same transfer under another coinbase.
// insert runs after each pair; the test keeps every post-state itself, so
// it can build on heights the chain has pruned.
type windowChain struct {
	t      *testing.T
	c      *Chain
	params Params
	canon  []*types.Block // index h-1 = canonical block at height h
	sibs   []*types.Block
	states map[types.Hash]*state.Snapshot
}

func newWindowChain(t *testing.T) *windowChain {
	gen := testGenesis()
	w := &windowChain{t: t, params: DefaultParams(), states: make(map[types.Hash]*state.Snapshot)}
	w.c = NewChain(gen, w.params)
	w.states[w.c.Genesis().Hash()] = gen
	return w
}

// build seals a block on parent with one transfer of alice's nonce.
func (w *windowChain) build(parent *types.Block, coinbase types.Address) (*types.Block, *ProcessResult) {
	w.t.Helper()
	txs := []*types.Transaction{transferTx(parent.Number(), alice, bob, 1, 1)}
	header := &types.Header{ParentHash: parent.Hash(), Number: parent.Number() + 1, Coinbase: coinbase,
		GasLimit: w.params.GasLimit, Time: parent.Number() + 1}
	res, err := ExecuteSerial(w.states[parent.Hash()], header, txs, w.params)
	if err != nil {
		w.t.Fatal(err)
	}
	b := SealBlock(&parent.Header, coinbase, header.Time, txs, res, w.params)
	w.states[b.Hash()] = res.State
	return b, res
}

func (w *windowChain) grow(heights int, insert func()) {
	w.t.Helper()
	parent := w.c.Head()
	for i := 0; i < heights; i++ {
		b, res := w.build(parent, miner)
		s, sres := w.build(parent, bob)
		if err := w.c.InsertWithReceipts(b, res.State, res.Receipts); err != nil {
			w.t.Fatal(err)
		}
		if err := w.c.InsertWithReceipts(s, sres.State, sres.Receipts); err != nil {
			w.t.Fatal(err)
		}
		w.canon, w.sibs = append(w.canon, b), append(w.sibs, s)
		parent = b
		if insert != nil {
			insert()
		}
	}
}

// TestStateWindow: 3W heights with a sibling at each. A height more than
// StateWindow below the head has lost its post-states, receipts and index
// entries, and refuses new blocks; every block stays reachable.
func TestStateWindow(t *testing.T) {
	w := newWindowChain(t)
	c := w.c
	w.grow(3*StateWindow, func() {
		c.mu.RLock()
		defer c.mu.RUnlock()
		if len(c.states) > 2*(StateWindow+1) || len(c.receipts) > 2*(StateWindow+1) || len(c.txIndex) > StateWindow+1 {
			t.Fatalf("head %d: %d states, %d receipts, %d index entries",
				c.blocks[c.head].Number(), len(c.states), len(c.receipts), len(c.txIndex))
		}
	})

	head := c.Height()
	if head != 3*StateWindow {
		t.Fatalf("head %d", head)
	}
	if c.StateOf(c.Genesis().Hash()) != nil || c.Block(c.Genesis().Hash()) == nil {
		t.Fatal("genesis: state kept or block lost")
	}
	for h := uint64(1); h <= head; h++ {
		pruned := h+StateWindow < head
		canon, sib := w.canon[h-1], w.sibs[h-1]
		for _, b := range []*types.Block{canon, sib} {
			if c.Block(b.Hash()) != b {
				t.Fatalf("height %d: block lost", h)
			}
			if (c.StateOf(b.Hash()) == nil) != pruned || (c.Receipts(b.Hash()) == nil) != pruned {
				t.Fatalf("height %d (pruned=%v): state %v, receipts %v", h, pruned,
					c.StateOf(b.Hash()) != nil, c.Receipts(b.Hash()) != nil)
			}
		}
		if at := c.BlocksAt(h); len(at) != 2 || at[0] != canon || at[1] != sib {
			t.Fatalf("height %d: BlocksAt = %v", h, at)
		}
		tx := canon.Txs[0].Hash()
		loc, found := c.FindTransaction(tx)
		_, hasReceipt := c.ReceiptOf(tx)
		if found == pruned || hasReceipt == pruned || (found && loc.BlockHash != canon.Hash()) {
			t.Fatalf("height %d (pruned=%v): FindTransaction %v %+v, ReceiptOf %v", h, pruned, found, loc, hasReceipt)
		}
	}

	// The deepest height still in the window takes a new sibling; the one
	// below it is refused, though the test still holds its parent's state.
	edge, _ := w.build(w.canon[head-StateWindow-2], alice)
	if err := c.Insert(edge, w.states[edge.Hash()]); err != nil {
		t.Fatalf("insert at height %d: %v", edge.Number(), err)
	}
	below, _ := w.build(w.canon[head-StateWindow-3], alice)
	if err := c.Insert(below, w.states[below.Hash()]); !errors.Is(err, ErrStatePruned) {
		t.Fatalf("insert at height %d: err = %v, want ErrStatePruned", below.Number(), err)
	}
	if c.Block(below.Hash()) != nil {
		t.Fatal("refused block stored")
	}
}

// TestConcurrentInsertPrune: readers take post-states while inserts prune.
// A state is either gone or the one its header commits to, and the head's
// is always there.
func TestConcurrentInsertPrune(t *testing.T) {
	w := newWindowChain(t)
	c := w.c
	known := make(chan types.Hash, 4*StateWindow)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen []types.Hash
			for {
				select {
				case <-stop:
					return
				case h := <-known:
					seen = append(seen, h)
				default:
				}
				if c.HeadState() == nil {
					t.Error("head state missing")
					return
				}
				for _, h := range seen {
					if st := c.StateOf(h); st != nil && st.Root() != c.Block(h).Header.StateRoot {
						t.Errorf("block %s: state root %s", h, st.Root())
						return
					}
				}
			}
		}()
	}
	w.grow(2*StateWindow, func() {
		known <- w.canon[len(w.canon)-1].Hash()
	})
	close(stop)
	wg.Wait()
}
