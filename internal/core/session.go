package core

import (
	"crypto/sha256"
	"fmt"
	"sync/atomic"

	"threadfuser/internal/cfg"
	"threadfuser/internal/ipdom"
	"threadfuser/internal/pool"
	"threadfuser/internal/trace"
	"threadfuser/internal/warp"
)

// Session is the analyzer: every entry point (Analyze, AnalyzeCached,
// AnalyzeStream, CacheKey, Upload) runs through one. It memoizes the
// trace-derived analysis products — the ingest (validation, packed columns, DCFGs),
// ipdom.ComputeAll, warp formation, and the content digest — keyed by trace
// identity, so sweeps that analyze one trace under many configurations (warp widths,
// formations, lock policies: figure 1, the extension studies,
// examples/warpwidthstudy) pay for the preparation exactly once. A Session
// is safe for concurrent use: concurrent Analyze calls on the same trace
// share one preparation, with duplicate work suppressed by pool.Memo.
//
// Cache entries are keyed by *trace.Trace pointer identity. Mutating a trace
// after analyzing it through a Session yields stale results; build a new
// trace (or a new Session) instead.
type Session struct {
	preps   pool.Memo[*trace.Trace, *prep]
	warps   pool.Memo[warpKey, []warp.Warp]
	digests pool.Memo[*trace.Trace, [sha256.Size]byte]
	cache   atomic.Pointer[Cache]
}

type warpKey struct {
	t         *trace.Trace
	width     int
	formation warp.Formation
}

// NewSession returns an empty Session.
func NewSession() *Session {
	return &Session{}
}

// SetCache attaches an on-disk report cache to the session. Subsequent
// Analyze calls consult it first; a hit skips preparation and replay
// entirely. Passing nil detaches the cache. The trace content digest the key
// needs is memoized per trace, so a sweep over many configurations hashes
// each trace once.
func (s *Session) SetCache(c *Cache) {
	s.cache.Store(c)
}

// Analyze is equivalent to the package-level Analyze but reuses the
// session's cached DCFG/IPDOM products and warp formations for traces it
// has seen before, and consults the attached report cache (if any) first.
func (s *Session) Analyze(t *trace.Trace, opts Options) (*Report, error) {
	r, _, err := s.AnalyzeCached(t, opts)
	return r, err
}

// AnalyzeCached is the one implementation of an analysis; every other entry
// point wraps it. It checks the options and the context, looks the analysis
// up in the attached report cache under the session's memoized trace digest,
// and on a miss prepares the trace, forms warps, replays, and stores the
// report. Options carrying a Listener bypass the cache, since a listener
// must observe a real replay. The boolean reports a cache hit.
func (s *Session) AnalyzeCached(t *trace.Trace, opts Options) (*Report, bool, error) {
	return s.analyzeCached(opts, func() [sha256.Size]byte { return s.digest(t) },
		func() (*trace.Trace, error) { return t, nil })
}

// analyzeCached is AnalyzeCached over a trace that digest keys and load
// supplies: digest runs only when the cache is consulted, and load only on
// a miss, so an upload that hits is never decoded.
func (s *Session) analyzeCached(opts Options, digest func() [sha256.Size]byte, load func() (*trace.Trace, error)) (*Report, bool, error) {
	if opts.WarpSize == 0 {
		return nil, false, fmt.Errorf("core: WarpSize must be set (use core.Defaults)")
	}
	if opts.Context != nil && opts.Context.Err() != nil {
		return nil, false, fmt.Errorf("core: analysis canceled: %w", opts.Context.Err())
	}
	c := s.cache.Load()
	key := ""
	if c != nil && opts.Listener == nil {
		key = cacheKeyFromDigest(digest(), opts)
		if r, ok := c.get(key); ok {
			return r, true, nil
		}
	}
	t, err := load()
	if err != nil {
		return nil, false, err
	}
	p, err := s.prep(t, opts.Parallelism)
	if err != nil {
		return nil, false, err
	}
	warps, err := s.form(t, opts.WarpSize, opts.Formation)
	if err != nil {
		return nil, false, err
	}
	r, err := analyzeWith(t, p, warps, opts)
	if err != nil {
		return nil, false, err
	}
	if key != "" {
		c.put(key, r)
	}
	return r, false, nil
}

// CacheKey returns the report-cache key of one (trace, options) analysis,
// hashing the trace through the session's digest memo, so a caller that
// needs the key before analyzing and the analysis itself share one digest.
func (s *Session) CacheKey(t *trace.Trace, opts Options) string {
	return cacheKeyFromDigest(s.digest(t), opts)
}

// Ingest decodes an indexed trace with r.Decode, the batch path's decode,
// and prepares it. The preparation seeds the session's memo; the returned
// trace is what subsequent Analyze calls should be handed, so sweeps over
// warp widths, formations, and lock policies start replaying immediately,
// having paid the ingest exactly once. A trace that cannot be read or fails
// validation fails with the batch path's error, and leaves nothing in the
// session.
func (s *Session) Ingest(r *trace.Reader, parallelism int) (*trace.Trace, error) {
	t, err := r.Decode(parallelism)
	if err != nil {
		return nil, err
	}
	p, err := prepare(t, parallelism)
	if err != nil {
		return nil, err
	}
	// t is new, so no other call can hold its memo entry yet: the seed lands.
	s.preps.Get(t, func() (*prep, error) { return p, nil })
	return t, nil
}

// digest returns the trace's memoized content digest.
func (s *Session) digest(t *trace.Trace) [sha256.Size]byte {
	sum, _ := s.digests.Get(t, func() ([sha256.Size]byte, error) { return trace.Digest(t), nil })
	return sum
}

// Prepared returns the trace's memoized DCFGs and post-dominator trees,
// validating the trace and building them on first use. Analysis passes that
// walk graph structure (divergence lint, static lock-leak paths) share the
// same preparation the replay consumes; both maps are read-only.
func (s *Session) Prepared(t *trace.Trace) (map[uint32]*cfg.DCFG, map[uint32]*ipdom.PostDom, error) {
	p, err := s.prep(t, 0)
	if err != nil {
		return nil, nil, err
	}
	return p.graphs, p.pdoms, nil
}

// prep returns the trace's cached preparation, computing it on first use
// with at most parallelism ingest workers (0: one per core).
func (s *Session) prep(t *trace.Trace, parallelism int) (*prep, error) {
	return s.preps.Get(t, func() (*prep, error) { return prepare(t, parallelism) })
}

// form returns the trace's cached warp formation for one width and
// formation algorithm. Formed warps are read-only during replay, so sharing
// them between configurations is safe.
func (s *Session) form(t *trace.Trace, width int, f warp.Formation) ([]warp.Warp, error) {
	return s.warps.Get(warpKey{t: t, width: width, formation: f}, func() ([]warp.Warp, error) {
		warps, err := warp.Form(t, width, f)
		if err != nil {
			return nil, fmt.Errorf("core: forming warps: %w", err)
		}
		return warps, nil
	})
}
