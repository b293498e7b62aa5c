package sim

import (
	"fmt"

	"blockpilot/internal/chain"
	"blockpilot/internal/types"
	"blockpilot/internal/validator"
)

// tamperKind names one way a Byzantine peer corrupts a block.
type tamperKind string

const (
	// Profile lies: a proposer commits a profile its block does not execute
	// to (ProfileRoot is re-sealed, so the hash changes). They must be
	// *additive* — they claim extra accesses or gas, so the dependency
	// graph built from them stays conservative and the rejection is always
	// the applier's profile mismatch, never a mis-scheduling error.
	tamperPhantomRead  tamperKind = "profile-phantom-read"
	tamperPhantomWrite tamperKind = "profile-phantom-write"
	tamperProfileGas   tamperKind = "profile-gas"
	// Relay edits keep the hash, and the body no longer matches the header:
	// the profile stripped, or a transaction's payload altered.
	tamperStripProfile tamperKind = "strip-profile"
	tamperTxData       tamperKind = "tx-data"
	// Header corruptions change the block hash.
	tamperStateRoot tamperKind = "header-state-root"
	tamperGasUsed   tamperKind = "header-gas-used"
)

// tamperCycle is the deterministic order tampered copies cycle through.
var tamperCycle = []tamperKind{
	tamperPhantomWrite,
	tamperStateRoot,
	tamperStripProfile,
	tamperTxData,
	tamperProfileGas,
	tamperGasUsed,
	tamperPhantomRead,
}

// tamperedInstance is one corrupted copy in flight, tracked by pointer
// identity (a same-hash copy shares its hash with the genuine block, so the
// pointer is the only stable identity).
type tamperedInstance struct {
	kind        tamperKind
	base        types.Hash // genuine block the copy was derived from
	instance    *types.Block
	class       error // expected rejection class (checked via errors.Is)
	sameHash    bool  // instance.Hash() == base
	deliveredTo map[string]bool
}

// phantomKey is the state key profile tampers claim to touch. No genuine
// execution ever reaches it.
var phantomKey = types.StorageKey(types.HexToAddress("0xbadc0de"), types.BytesToHash([]byte{0x51}))

// copyProfile deep-copies a block profile through its canonical encoding.
func copyProfile(p *types.BlockProfile) (*types.BlockProfile, error) {
	return types.DecodeBlockProfile(p.Encode())
}

// makeTamper derives one corrupted copy of b. The genuine block is never
// modified.
func makeTamper(b *types.Block, kind tamperKind) (*tamperedInstance, error) {
	if len(b.Txs) == 0 && kind != tamperStateRoot && kind != tamperGasUsed {
		kind = tamperStateRoot // nothing to corrupt in an empty body
	}
	cp := *b // shallow copy: header by value, shared txs/profile replaced below
	ti := &tamperedInstance{kind: kind, base: b.Hash(), deliveredTo: make(map[string]bool)}

	switch kind {
	case tamperPhantomRead, tamperPhantomWrite, tamperProfileGas:
		prof, err := copyProfile(b.Profile)
		if err != nil {
			return nil, fmt.Errorf("sim: profile copy: %w", err)
		}
		switch kind {
		case tamperPhantomRead:
			prof.Txs[0].Reads = append(prof.Txs[0].Reads, types.KeyVersion{Key: phantomKey})
		case tamperPhantomWrite:
			prof.Txs[0].Writes = append(prof.Txs[0].Writes, phantomKey)
		case tamperProfileGas:
			prof.Txs[0].GasUsed++
		}
		cp.Profile = prof
		cp.Header.ProfileRoot = types.ComputeProfileRoot(prof)
		ti.class = validator.ErrProfileMismatch
	case tamperStripProfile:
		cp.Profile = nil
		ti.class = chain.ErrBodyMismatch
		ti.sameHash = true
	case tamperStateRoot:
		cp.Header.StateRoot[0] ^= 0xff
		ti.class = validator.ErrBadBlock
	case tamperGasUsed:
		cp.Header.GasUsed++
		ti.class = validator.ErrBadBlock
	case tamperTxData:
		txs := append([]*types.Transaction(nil), b.Txs...)
		mut, err := types.DecodeTransaction(b.Txs[0].Encode())
		if err != nil {
			return nil, fmt.Errorf("sim: tx copy: %w", err)
		}
		mut.Data = append(append([]byte(nil), mut.Data...), 0xff)
		txs[0] = mut
		cp.Txs = txs
		ti.class = chain.ErrBodyMismatch
		ti.sameHash = true
	default:
		return nil, fmt.Errorf("sim: unknown tamper kind %q", kind)
	}

	if got := cp.Hash() == b.Hash(); got != ti.sameHash {
		return nil, fmt.Errorf("sim: tamper %s: sameHash expectation violated", kind)
	}
	ti.instance = &cp
	return ti, nil
}
