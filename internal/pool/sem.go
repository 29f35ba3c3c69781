package pool

import "context"

// Sem is a counting semaphore with non-blocking and context-aware acquire
// paths. ForEach runs a fixed set of items to completion; Sem is the
// admission-control primitive the analysis service layers on top: engine
// slots, the bounded admission queue, and per-tenant concurrency budgets are
// all Sems, differing only in capacity and in whether exhaustion sheds
// (TryAcquire) or waits (Acquire).
type Sem struct {
	ch chan struct{}
}

// NewSem returns a semaphore with n slots. A non-positive n is clamped to 1
// so a zero-valued configuration degrades to full serialization, never to a
// semaphore that can't be acquired at all.
func NewSem(n int) *Sem {
	if n < 1 {
		n = 1
	}
	return &Sem{ch: make(chan struct{}, n)}
}

// TryAcquire takes a slot if one is free and reports whether it did. It
// never blocks — this is the load-shedding path: a full semaphore means the
// caller should turn the request away, not queue behind it.
func (s *Sem) TryAcquire() bool {
	select {
	case s.ch <- struct{}{}:
		return true
	default:
		return false
	}
}

// Acquire blocks until a slot frees up or ctx is done, returning ctx.Err()
// in the latter case.
func (s *Sem) Acquire(ctx context.Context) error {
	select {
	case s.ch <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot. Releasing more than was acquired is a programming
// error and panics rather than silently inflating capacity.
func (s *Sem) Release() {
	select {
	case <-s.ch:
	default:
		panic("pool: Sem.Release without a matching Acquire")
	}
}

// InUse returns the number of currently held slots. It is inherently racy
// under concurrent traffic and meant for stats reporting and for tests
// asserting a drained semaphore returns to zero.
func (s *Sem) InUse() int { return len(s.ch) }

// Cap returns the semaphore's slot count.
func (s *Sem) Cap() int { return cap(s.ch) }
