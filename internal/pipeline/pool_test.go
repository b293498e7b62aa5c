package pipeline

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkerPoolClosedGuard: submitting to a closed pool must not block
// forever on the full channel — TrySubmit reports false and Submit panics
// with ErrPoolClosed.
func TestWorkerPoolClosedGuard(t *testing.T) {
	p := NewWorkerPool(2)
	var ran atomic.Int64
	p.Submit(func() { ran.Add(1) })
	p.Close()
	if ran.Load() != 1 {
		t.Fatalf("task did not run before close: %d", ran.Load())
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if p.TrySubmit(func() { ran.Add(1) }) {
			t.Error("TrySubmit succeeded on closed pool")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("TrySubmit blocked on closed pool")
	}

	defer func() {
		r := recover()
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("Submit on closed pool panicked with %v, want ErrPoolClosed", r)
		}
	}()
	p.Submit(func() {})
	t.Fatal("Submit on closed pool returned")
}

// TestWorkerPoolDoubleClose: Close is idempotent.
func TestWorkerPoolDoubleClose(t *testing.T) {
	p := NewWorkerPool(1)
	p.Close()
	p.Close()
}
