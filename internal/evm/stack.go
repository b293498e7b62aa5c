package evm

import (
	"sync"

	"blockpilot/internal/uint256"
)

// stackLimit is the EVM's maximum stack depth.
const stackLimit = 1024

// Stack is the EVM operand stack of 256-bit words: a fixed array, so a push
// is a store and an index bump. Depth is pre-checked by the interpreter, per
// segment or per op against minStack/maxStack; the array bound is the
// backstop. (*EVM).run works on data directly and keeps the height in a
// local: n is current only while an op outside run's switch executes.
type Stack struct {
	data [stackLimit]uint256.Int
	n    int
}

// stackPool recycles the 32 KiB stacks across call frames. Words above n are
// stale but unreachable: every read is depth-checked against n first.
var stackPool = sync.Pool{New: func() any { return new(Stack) }}

func newStack() *Stack {
	s := stackPool.Get().(*Stack)
	s.n = 0
	return s
}

// release returns s to the pool; s must not be used afterwards.
func (s *Stack) release() { stackPool.Put(s) }

func (s *Stack) push(v *uint256.Int) {
	s.data[s.n] = *v
	s.n++
}

// pop removes and returns the top element.
func (s *Stack) pop() uint256.Int {
	s.n--
	return s.data[s.n]
}

// peek returns a pointer to the top element (mutable in place).
func (s *Stack) peek() *uint256.Int {
	return &s.data[s.n-1]
}

// back returns the n-th element from the top (0 = top).
func (s *Stack) back(n int) *uint256.Int {
	return &s.data[s.n-1-n]
}
