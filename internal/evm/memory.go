package evm

import "blockpilot/internal/uint256"

// Memory is the byte-addressed scratch memory of one call frame. It grows
// in 32-byte words; expansion cost is charged by the interpreter before any
// resize.
type Memory struct {
	store       []byte
	lastGasCost uint64
}

func newMemory() *Memory { return &Memory{} }

// len returns the current memory size in bytes.
func (m *Memory) len() uint64 { return uint64(len(m.store)) }

// resize grows memory to at least size bytes, rounded up to a word. The new
// bytes are zero; capacity grows geometrically, so a contract that walks
// memory word by word copies O(n) bytes in total, not O(n²).
func (m *Memory) resize(size uint64) {
	if size <= m.len() {
		return
	}
	size = (size + 31) / 32 * 32
	m.store = append(m.store, make([]byte, size-m.len())...)
}

// set writes value at [offset, offset+len(value)). Memory must already be
// sized (the interpreter resizes before execute).
func (m *Memory) set(offset uint64, value []byte) {
	if len(value) == 0 {
		return
	}
	copy(m.store[offset:offset+uint64(len(value))], value)
}

// setByte writes one byte.
func (m *Memory) setByte(offset uint64, b byte) {
	m.store[offset] = b
}

// set32 writes a 256-bit word big-endian at offset.
func (m *Memory) set32(offset uint64, v *uint256.Int) {
	b := v.Bytes32()
	copy(m.store[offset:offset+32], b[:])
}

// get returns a copy of [offset, offset+size).
func (m *Memory) get(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	out := make([]byte, size)
	copy(out, m.store[offset:offset+size])
	return out
}

// view returns a read-only window without copying.
func (m *Memory) view(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	return m.store[offset : offset+size]
}
