package telemetry

// Ring is a fixed-capacity overwrite-oldest buffer: the one ring under the
// trace recorder's event logs and the health recorder's sample series. It
// grows as it is written, up to its capacity, so a ring that is never
// written costs nothing. It is not synchronised — each owner guards its ring
// with the lock (and cache-line padding) that fits its own access pattern.
type Ring[T any] struct {
	buf   []T
	size  int // capacity
	next  int // once full, the oldest value's index
	total uint64
}

// NewRing builds a ring holding up to capacity values (at least one).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{size: max(capacity, 1)}
}

// Push stores v, returning the value it overwrote once the ring is full.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	r.total++
	if n := len(r.buf); n < r.size {
		if n == cap(r.buf) {
			r.buf = append(make([]T, 0, min(max(2*n, 16), r.size)), r.buf...)
		}
		r.buf = append(r.buf, v)
		return old, false
	}
	old, r.buf[r.next] = r.buf[r.next], v
	if r.next++; r.next == r.size {
		r.next = 0
	}
	return old, true
}

// Len returns how many values are buffered.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns how many values were ever pushed (including overwritten).
func (r *Ring[T]) Total() uint64 { return r.total }

// AppendTo appends the buffered values to out, oldest first.
func (r *Ring[T]) AppendTo(out []T) []T {
	return append(append(out, r.buf[r.next:]...), r.buf[:r.next]...)
}
