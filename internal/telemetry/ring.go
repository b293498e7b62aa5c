package telemetry

// Ring is a fixed-capacity overwrite-oldest buffer: the one ring under the
// flight recorder's per-worker event logs, the block tracer's span store and
// the health recorder's sample series. It is not synchronised — each owner
// guards its ring with the lock (and cache-line padding) that fits its own
// access pattern.
type Ring[T any] struct {
	buf    []T
	next   int
	filled bool
	total  uint64
}

// NewRing builds a ring holding up to capacity values (at least one).
func NewRing[T any](capacity int) Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return Ring[T]{buf: make([]T, capacity)}
}

// Push stores v, returning the value it overwrote once the ring has wrapped.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	old, evicted = r.buf[r.next], r.filled
	r.buf[r.next] = v
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
	return old, evicted
}

// Len returns how many values are buffered.
func (r *Ring[T]) Len() int {
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// Total returns how many values were ever pushed (including overwritten).
func (r *Ring[T]) Total() uint64 { return r.total }

// AppendTo appends the buffered values to out, oldest first.
func (r *Ring[T]) AppendTo(out []T) []T {
	if r.filled {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}
