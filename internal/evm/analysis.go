package evm

import (
	"slices"
	"sync"

	"blockpilot/internal/types"
	"blockpilot/internal/uint256"
)

// Bits of analysis.slot[pc]; the rest is the index in analysis.segs, plus
// one, of the segment that starts at pc.
const (
	// jumpdestSlot: pc holds a JUMPDEST opcode (always a segment start).
	jumpdestSlot = 1 << 31
	// constJumpSlot: pc holds the PUSH of PUSHn dest; JUMP or PUSHn dest;
	// JUMPI, the two in one segment and dest a JUMPDEST: when the segment's
	// entry check has passed, run jumps from the PUSH without pushing,
	// popping or validating dest.
	constJumpSlot = 1 << 30
	segIndexMask  = constJumpSlot - 1
)

// segment is a maximal straight-line run of opcodes whose gas and stack
// effect are constants of the code, so that one check at its first op stands
// for the per-op checks of all of them. Only admitted ops (operation.admitted)
// are inside segments. A segment starts at pc 0, at every JUMPDEST and after
// every op that is not admitted; it ends before the next of those and after
// JUMP, JUMPI and STOP. Control therefore enters a segment only at its start
// and leaves it only at its end or by its last op failing.
type segment struct {
	gas  uint64 // summed constantGas of its ops
	end  uint32 // pc just past its last op, len(code) at most
	push uint32 // index in analysis.pushes of the immediate of its first PUSH
	// need is the stack height its ops require at entry and peak the most
	// the stack grows above that height while it runs. Both saturate at
	// stackLimit+1, which no entry height satisfies.
	need, peak uint16
}

// analysis is everything the interpreter derives from a code blob before
// running it. It is a pure function of the code bytes and immutable once
// built, so frames on any goroutine share one value.
type analysis struct {
	// slot[pc] is 0 unless a segment starts at the opcode at pc or it is a
	// PUSH with constJumpSlot. Bytes inside PUSH data are not opcodes: a 0x5b
	// there stays 0.
	slot []uint32
	segs []segment
	// pushes holds every PUSH immediate decoded to a word, right-zero-padded
	// to its n bytes when the code ends early, in code order: a segment's
	// PUSHes read consecutive entries from segment.push on.
	pushes []uint256.Int
}

// analyse builds the analysis of code.
func analyse(code []byte) *analysis {
	an := &analysis{slot: make([]uint32, len(code))}
	var (
		segs   []segment
		pushes []uint256.Int
		seg    segment // the open segment
		open   bool
		// Stack height relative to seg's entry, and its bounds so far.
		height, need, peak int
		pushAt             = -1 // pc of the previous op if it is a PUSH
		// PUSH; JUMP and PUSH; JUMPI pairs: pc of the PUSH, index of its
		// immediate. Whether that is a JUMPDEST is known after the pass.
		constJumps [][2]int
	)
	closeSeg := func(end int) {
		if open {
			seg.end = uint32(end)
			seg.need, seg.peak = uint16(min(need, stackLimit+1)), uint16(min(peak, stackLimit+1))
			segs = append(segs, seg)
			open = false
		}
	}
	for pc := 0; pc < len(code); pc++ {
		op := OpCode(code[pc])
		oper := &jumpTable[op]
		prevPush := pushAt
		pushAt = -1
		if op == JUMPDEST {
			closeSeg(pc)
			an.slot[pc] = jumpdestSlot
		}
		if !oper.admitted {
			closeSeg(pc)
			continue
		}
		if !open {
			open, seg = true, segment{push: uint32(len(pushes))}
			an.slot[pc] |= uint32(len(segs) + 1)
			height, need, peak = 0, 0, 0
		}
		seg.gas += oper.constantGas
		need = max(need, oper.minStack-height)
		height += stackLimit - oper.maxStack
		peak = max(peak, height)
		if op >= PUSH1 && op <= PUSH32 {
			n := int(op-PUSH1) + 1
			var buf [32]byte
			copy(buf[:n], code[pc+1:min(pc+1+n, len(code))])
			var v uint256.Int
			v.SetBytes(buf[:n])
			pushes = append(pushes, v)
			pushAt = pc
			pc += n
		}
		if op == JUMP || op == JUMPI || op == STOP {
			if op != STOP && prevPush >= 0 {
				constJumps = append(constJumps, [2]int{prevPush, len(pushes) - 1})
			}
			closeSeg(pc + 1)
		}
	}
	closeSeg(len(code))
	for _, cj := range constJumps {
		if an.validJump(&pushes[cj[1]]) {
			an.slot[cj[0]] |= constJumpSlot
		}
	}
	// Exact-size copies: the cache's byte budget counts len, not append's cap.
	an.segs, an.pushes = slices.Clone(segs), slices.Clone(pushes)
	return an
}

// validJump reports whether dest is a JUMPDEST opcode of the analysed code.
func (an *analysis) validJump(dest *uint256.Int) bool {
	return dest.IsUint64() && dest.Uint64() < uint64(len(an.slot)) && an.slot[dest.Uint64()]&jumpdestSlot != 0
}

// analysisCacheCap bounds the shared analysis cache by entry count. An entry
// costs 4 B per code byte (slot), 32 B per PUSH and 24 B per segment. Compiler
// output has a PUSH per ~3.5 bytes and, going by the bundled contracts, a
// segment per ~8: ≈ 16 B per code byte. The worst case is code of nothing but
// JUMPDESTs, a segment each: 28 B per code byte (all PUSH1 comes to 20). At
// the EIP-170 limit of 24 KiB that is ≈ 384 KiB typical and 672 KiB worst
// case per entry, so a full cache of maximum-size contracts holds ≈ 96 MiB
// (168 MiB worst case); the bundled workloads' contracts, under 100 bytes
// each, cost ≈ 1 KiB apiece.
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
