package validator

import (
	"slices"
	"sync"
	"testing"

	"blockpilot/internal/chain"
	"blockpilot/internal/state"
	"blockpilot/internal/types"
	"blockpilot/internal/workload"
)

// fuzzGenesis is the state every FuzzValidateVsSerial input builds its block
// on, built once per process: 60 accounts, so that a block of up to 24
// transactions has nonce chains and shared recipients, and little spin, so
// that an input costs about a millisecond.
var fuzzGenesis = sync.OnceValues(func() (workload.Config, *state.Snapshot) {
	cfg := workload.Default()
	cfg.NumAccounts, cfg.SpinMin, cfg.SpinMax = 60, 10, 200
	return cfg, workload.New(cfg).GenesisState()
})

// FuzzValidateVsSerial holds ValidateParallel's verdict to the serial
// oracle's on mutated blocks. An input is a workload seed, a block size of
// 4–24, a thread count of 1–4, a sealing mode and a mutation script over the
// block an honest serial proposer seals from the seed's transactions (see
// mutate). The oracle accepts when chain.VerifyBlockSerial does and the
// serial replay's profile matches the block's, transaction by transaction:
// the same access keys and the same gas. ValidateParallel must accept
// exactly when the oracle does, and then with the oracle's root.
//
// The sealing mode, mode%5: in four inputs of five the header is re-sealed to the
// mutated body (TxRoot, ProfileRoot), as a lying proposer would; in two of
// those four the execution commitments (gas used, receipt root, bloom, state
// root) are re-sealed too, from a serial run of the mutated transactions, so
// that the profile alone decides. The fifth input leaves the header as
// sealed, which chain.CheckBody must catch on both sides.
//
// The sibling mode, mode/5: when odd, the honest block and the mutated one
// are also validated as siblings on one record (validatePair), the honest
// one leading; when mode/10%4 is 0, the mutated one leads instead. Each
// follower whose body passes chain.CheckBody, the pipeline's condition for
// sharing a record, must reach its standalone ValidateParallel verdict, and
// then its root.
func FuzzValidateVsSerial(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(2), uint8(0), []byte{})
	f.Add(int64(2), uint8(20), uint8(4), uint8(2), []byte{0, 3, 1, 0})
	f.Add(int64(3), uint8(16), uint8(3), uint8(1), []byte{3, 5, 2, 9})
	f.Add(int64(4), uint8(24), uint8(4), uint8(0), []byte{4, 1, 0, 7, 5, 2, 1, 11})
	f.Add(int64(5), uint8(8), uint8(2), uint8(0), []byte{5, 0, 0, 3})
	f.Add(int64(6), uint8(14), uint8(2), uint8(2), []byte{6, 4, 0, 1})
	f.Add(int64(7), uint8(10), uint8(1), uint8(1), []byte{7, 2, 5, 0x40})
	f.Add(int64(8), uint8(12), uint8(3), uint8(4), []byte{1, 0, 0, 0})
	f.Add(int64(9), uint8(16), uint8(2), uint8(5), []byte{6, 3, 0, 1})
	f.Add(int64(10), uint8(20), uint8(4), uint8(17), []byte{1, 2, 0, 0, 7, 9, 1, 3})
	f.Add(int64(11), uint8(12), uint8(3), uint8(36), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, size, threads, mode uint8, script []byte) {
		cfg, genesis := fuzzGenesis()
		cfg.Seed, cfg.TxPerBlock = seed, 4+int(size)%21
		params := chain.DefaultParams()
		header := &types.Header{Number: 0, StateRoot: genesis.Root(), GasLimit: params.GasLimit}
		honest := sealSerial(t, genesis, header, workload.New(cfg).NextBlockTxs(), 0)
		block := mutate(honest, script)
		switch mode % 5 {
		case 0, 1:
			// Edited transactions that do not run leave the execution commitments as sealed.
			if res, err := chain.ExecuteSerial(genesis, &block.Header, block.Txs, params); err == nil {
				chain.SealBody(&block.Header, block.Txs, block.Profile, res.Receipts, res.GasUsed)
				block.Header.StateRoot = res.State.Root()
			}
			fallthrough
		case 2, 3:
			block.Header.TxRoot = types.ComputeTxRoot(block.Txs)
			reseal(block)
		}

		serial, serr := chain.VerifyBlockSerial(genesis, header, block, params)
		want := serr == nil && sameProfile(serial.Profile, block.Profile)
		n := 1 + int(threads)%4
		got, err := ValidateParallel(genesis, header, block, DefaultConfig(n), params)
		if (err == nil) != want {
			t.Fatalf("threads=%d: parallel err = %v, oracle accepts %v (serial err = %v)", n, err, want, serr)
		}
		if want && got.State.Root() != serial.State.Root() {
			t.Fatalf("threads=%d: parallel root %s, serial %s", n, got.State.Root(), serial.State.Root())
		}

		if mode/5%2 == 0 {
			return
		}
		leader, follower, alone, aloneErr := honest, block, got, err
		if mode/10%4 == 0 {
			leader, follower = block, honest
			alone, aloneErr = ValidateParallel(genesis, header, honest, DefaultConfig(n), params)
		}
		if chain.CheckBody(leader) != nil || chain.CheckBody(follower) != nil {
			return
		}
		_, fres, _, ferr := validatePair(genesis, header, leader, follower, n, mode%2 == 0)
		if (ferr == nil) != (aloneErr == nil) {
			t.Fatalf("threads=%d: follower err = %v, standalone err = %v", n, ferr, aloneErr)
		}
		if ferr == nil && fres.State.Root() != alone.State.Root() {
			t.Fatalf("threads=%d: follower root %s, standalone %s", n, fres.State.Root(), alone.State.Root())
		}
	})
}

// sameProfile reports whether the block's profile b states what the serial
// replay observed, s: per transaction the same access keys and gas.
func sameProfile(s, b *types.BlockProfile) bool {
	return slices.EqualFunc(s.Txs, b.Txs, func(p, q *types.TxProfile) bool {
		return p.SameAccessKeys(q) && p.GasUsed == q.GasUsed
	})
}

// mutate returns a copy of b edited by script, four bytes an edit (at most
// four): an opcode, a transaction a, and two operands x and y. The edits are
// a proposer's plausible lies and a relay's tampering:
//
//	0, 1  drop a's x-th read (0) or write (1) key
//	2, 3  add to a's reads (2) or writes (3) a key a sealed transaction touches
//	4     move one of a's keys to another transaction
//	5     swap two transactions, and their profiles when x is even
//	6     change one gas field: a's profile gas, a's gas limit or the header's gas used
//	7     alter a's call data
//
// Added keys keep their list sorted and duplicate-free, so that only the
// profile's content is a lie, not its form. b itself is not touched.
func mutate(b *types.Block, script []byte) *types.Block {
	m := *b
	m.Txs = slices.Clone(b.Txs)
	m.Profile = &types.BlockProfile{Txs: make([]*types.TxProfile, len(b.Profile.Txs))}
	for i, tp := range b.Profile.Txs {
		m.Profile.Txs[i] = &types.TxProfile{Reads: slices.Clone(tp.Reads), Writes: slices.Clone(tp.Writes), GasUsed: tp.GasUsed}
	}
	n := len(m.Txs)
	for edits := 0; len(script) >= 4 && edits < 4; script, edits = script[4:], edits+1 {
		op, a, x, y := script[0]%8, int(script[1])%n, int(script[2]), int(script[3])
		tp, other, sealed := m.Profile.Txs[a], m.Profile.Txs[y%n], b.Profile.Txs[y%n]
		switch op {
		case 0:
			if len(tp.Reads) > 0 {
				tp.Reads = slices.Delete(tp.Reads, x%len(tp.Reads), x%len(tp.Reads)+1)
			}
		case 1:
			if len(tp.Writes) > 0 {
				tp.Writes = slices.Delete(tp.Writes, x%len(tp.Writes), x%len(tp.Writes)+1)
			}
		case 2:
			tp.Reads = addRead(tp.Reads, keyOf(sealed, x))
		case 3:
			tp.Writes = addWrite(tp.Writes, keyOf(sealed, x))
		case 4:
			if x%2 == 0 && len(tp.Reads) > 0 {
				i := (x / 2) % len(tp.Reads)
				other.Reads = addRead(other.Reads, tp.Reads[i].Key)
				tp.Reads = slices.Delete(tp.Reads, i, i+1)
			} else if len(tp.Writes) > 0 {
				i := (x / 2) % len(tp.Writes)
				other.Writes = addWrite(other.Writes, tp.Writes[i])
				tp.Writes = slices.Delete(tp.Writes, i, i+1)
			}
		case 5:
			j := y % n
			m.Txs[a], m.Txs[j] = m.Txs[j], m.Txs[a]
			if x%2 == 0 {
				m.Profile.Txs[a], m.Profile.Txs[j] = m.Profile.Txs[j], m.Profile.Txs[a]
			}
		case 6:
			delta := uint64(int64(int8(y)) | 1) // never 0
			switch x % 3 {
			case 0:
				tp.GasUsed += delta
			case 1:
				m.Txs[a] = cloneTx(m.Txs[a])
				m.Txs[a].Gas += delta
			default:
				m.Header.GasUsed += delta
			}
		case 7:
			tx := cloneTx(m.Txs[a])
			if len(tx.Data) == 0 {
				tx.Data = []byte{byte(y)}
			} else {
				tx.Data[x%len(tx.Data)] ^= byte(y) | 1
			}
			m.Txs[a] = tx
		}
	}
	return &m
}

// keyOf returns the x-th of the keys tp reads or writes. A sealed profile
// has one at least: every transaction reads its sender's account.
func keyOf(tp *types.TxProfile, x int) types.StateKey {
	if x %= len(tp.Reads) + len(tp.Writes); x < len(tp.Reads) {
		return tp.Reads[x].Key
	}
	return tp.Writes[x-len(tp.Reads)]
}

// addRead inserts k into the sorted reads, unless it is there.
func addRead(reads []types.KeyVersion, k types.StateKey) []types.KeyVersion {
	i, found := slices.BinarySearchFunc(reads, k, func(kv types.KeyVersion, k types.StateKey) int { return kv.Key.Compare(&k) })
	if found {
		return reads
	}
	return slices.Insert(reads, i, types.KeyVersion{Key: k})
}

// addWrite inserts k into the sorted writes, unless it is there.
func addWrite(writes []types.StateKey, k types.StateKey) []types.StateKey {
	i, found := slices.BinarySearchFunc(writes, k, func(w, k types.StateKey) int { return w.Compare(&k) })
	if found {
		return writes
	}
	return slices.Insert(writes, i, k)
}

// cloneTx copies tx without its cached hash, so that an edit changes it.
func cloneTx(tx *types.Transaction) *types.Transaction {
	return &types.Transaction{Nonce: tx.Nonce, GasPrice: tx.GasPrice, Gas: tx.Gas, To: tx.To, Value: tx.Value,
		Data: slices.Clone(tx.Data), From: tx.From, CreateContract: tx.CreateContract}
}
