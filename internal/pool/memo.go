package pool

import "sync"

// Memo is a keyed memo. core.Session's preparations, warp formations and
// digests, the lint engine's replay reports and the check engine's per-cell
// reports each live in one. The zero Memo is ready to use; a Memo must not
// be copied after first use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() (V, error)
}

// Get returns k's memoized result, running fn through sync.OnceValues on
// the key's first call. Concurrent callers of one key wait for that one
// run, and later callers get its result whatever their own fn: errors are
// memoized like values, and a panic in fn panics again in every later Get
// of the key. fn runs without the memo's lock, so other keys compute
// independently.
func (m *Memo[K, V]) Get(k K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	f, ok := m.m[k]
	if !ok {
		if m.m == nil {
			m.m = make(map[K]func() (V, error))
		}
		f = sync.OnceValues(fn)
		m.m[k] = f
	}
	m.mu.Unlock()
	return f()
}
