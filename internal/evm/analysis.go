package evm

import (
	"sync"

	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// jumpdestSlot marks a valid JUMPDEST in analysis.slot.
const jumpdestSlot = ^uint32(0)

// analysis is everything the interpreter derives from a code blob before
// running it. It is a pure function of the code bytes and immutable once
// built, so frames on any goroutine share one value.
type analysis struct {
	// slot[pc] is the index into pushes of the immediate of a PUSHn opcode
	// at pc, jumpdestSlot for a JUMPDEST opcode, and 0 (never read) anywhere
	// else. Bytes inside PUSH data are not opcodes: a 0x5b there stays 0.
	slot []uint32
	// pushes holds every PUSH immediate decoded to a word, right-zero-padded
	// to its n bytes when the code ends early.
	pushes []uint256.Int
}

// analyse builds the analysis of code.
func analyse(code []byte) *analysis {
	an := &analysis{slot: make([]uint32, len(code))}
	pushes := 0
	for pc := 0; pc < len(code); pc++ {
		if op := OpCode(code[pc]); op >= PUSH1 && op <= PUSH32 {
			pushes++
			pc += int(op-PUSH1) + 1
		}
	}
	an.pushes = make([]uint256.Int, 0, pushes)
	for pc := 0; pc < len(code); pc++ {
		switch op := OpCode(code[pc]); {
		case op == JUMPDEST:
			an.slot[pc] = jumpdestSlot
		case op >= PUSH1 && op <= PUSH32:
			n := int(op-PUSH1) + 1
			var buf [32]byte
			copy(buf[:n], code[pc+1:min(pc+1+n, len(code))])
			var v uint256.Int
			v.SetBytes(buf[:n])
			an.slot[pc] = uint32(len(an.pushes))
			an.pushes = append(an.pushes, v)
			pc += n
		}
	}
	return an
}

// validJump reports whether dest is a JUMPDEST opcode of the analysed code.
func (an *analysis) validJump(dest *uint256.Int) bool {
	return dest.IsUint64() && dest.Uint64() < uint64(len(an.slot)) && an.slot[dest.Uint64()] == jumpdestSlot
}

// analysisCacheCap bounds the shared analysis cache by entry count. An entry
// costs 4 B per code byte plus 32 B per PUSH: ≈ 13 B per code byte for
// compiler output (one PUSH per ~3.5 bytes), at most 20 B (all PUSH1). At
// the EIP-170 limit of 24 KiB that is ≈ 320 KiB typical and 480 KiB worst
// case per entry, so a full cache of maximum-size contracts holds ≈ 80 MiB
// (120 MiB worst case); the few-hundred-byte contracts of the bundled
// workloads cost ≈ 5 KiB each, ≈ 1 MiB for a full cache.
const analysisCacheCap = 256

// analysisCache maps code hash → analysis for deployed code. Analyses are
// pure functions of the code, so racing builders of one hash store equal
// values and a stale entry cannot exist; eviction only costs a rebuild.
var analysisCache = struct {
	sync.RWMutex
	m map[types.Hash]*analysis
}{m: make(map[types.Hash]*analysis, analysisCacheCap)}

// analysisFor returns the analysis of code, whose Keccak-256 is hash, from
// the cache, building and inserting it on a miss. When the cache is full an
// arbitrary entry (Go's random map iteration order) makes room.
func analysisFor(hash types.Hash, code []byte) *analysis {
	analysisCache.RLock()
	an := analysisCache.m[hash]
	analysisCache.RUnlock()
	if an != nil {
		return an
	}
	an = analyse(code)
	analysisCache.Lock()
	if _, ok := analysisCache.m[hash]; !ok && len(analysisCache.m) >= analysisCacheCap {
		for victim := range analysisCache.m {
			delete(analysisCache.m, victim)
			break
		}
	}
	analysisCache.m[hash] = an
	analysisCache.Unlock()
	return an
}
