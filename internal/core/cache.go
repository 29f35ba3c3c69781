package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"threadfuser/internal/trace"
)

// Cache is a content-addressed on-disk report cache: every tfreport, tflint,
// and tfcheck invocation re-pays full replay even for a trace it analyzed
// seconds ago, and on paper-scale traces that preparation dominates. Entries
// are keyed by a SHA-256 over the trace content (trace.Digest, a hash of its
// canonical v2 encoding, so the same trace hits regardless of which
// container version it travelled through) combined with the canonicalized
// analysis options and a schema tag that self-invalidates every entry when
// the Report format or the digest changes.
//
// The cache is strictly best-effort: writes are atomic (temp file + rename)
// so readers never see a torn entry, and any unreadable, corrupt, or
// schema-mismatched entry is treated as a miss and recomputed — corruption
// never surfaces as an error. A Cache is safe for concurrent use, including
// by multiple processes sharing one directory.
//
// A size cap (SetMaxBytes) turns the cache into an LRU: every store evicts
// least-recently-used entries until the directory fits, and a hit refreshes
// its entry's recency, so a long-running service's cache stays bounded while
// its hot set stays resident. Recency is the entry file's mtime — crude, but
// it survives process restarts and is shared correctly between processes.
type Cache struct {
	dir      string
	maxBytes atomic.Int64
	// evictMu serializes eviction scans so concurrent stores don't race to
	// delete the same entries (deleting an already-deleted file is harmless,
	// but N concurrent directory scans are wasted work).
	evictMu sync.Mutex
}

// cacheSchema versions the on-disk entry layout AND the semantics of the
// cached computation. Bump it whenever Report gains fields or replay
// semantics change, so stale entries self-invalidate.
const cacheSchema = 5 // 5: trace digest over the canonical v2 encoding

// cacheEntry is the stored JSON envelope.
type cacheEntry struct {
	Schema int     `json:"schema"`
	Report *Report `json:"report"`
}

// NewCache returns a cache rooted at dir. The directory is created lazily on
// first store, so pointing at a read-only or nonexistent location merely
// disables storing.
func NewCache(dir string) *Cache {
	return &Cache{dir: dir}
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// SetMaxBytes caps the cache's on-disk size. After every store, entries are
// evicted in least-recently-used order (oldest mtime first; a get refreshes
// its entry's mtime) until the directory's entry bytes fit under n. A
// non-positive n removes the cap. Eviction is best-effort like everything
// else here: a removal that fails is skipped, and a reader that loses the
// race to an evicted entry simply misses and recomputes.
func (c *Cache) SetMaxBytes(n int64) {
	c.maxBytes.Store(n)
}

// DefaultCacheDir is the per-user default cache location the CLI front-ends
// share (-cache with no -cache-dir).
func DefaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ".tfcache"
	}
	return filepath.Join(base, "threadfuser")
}

// OpenFlagCache resolves the -cache/-cache-dir CLI convention the front-ends
// share: nil (caching disabled) unless either flag is set, the default
// per-user directory when only -cache is given.
func OpenFlagCache(enabled bool, dir string) *Cache {
	if !enabled && dir == "" {
		return nil
	}
	if dir == "" {
		dir = DefaultCacheDir()
	}
	return NewCache(dir)
}

// cacheKeyFromDigest mixes the canonicalized options into the trace digest.
// Parallelism is deliberately excluded (parallel and serial replay are
// bit-identical — a standing tfcheck invariant), as is Listener (a listener
// observes replay, so listener runs bypass the cache entirely).
func cacheKeyFromDigest(sum [sha256.Size]byte, opts Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "threadfuser report schema %d\n", cacheSchema)
	h.Write(sum[:])
	fmt.Fprintf(h, "\nwarp=%d formation=%s locks=%t lockreconv=%s\n",
		opts.WarpSize, opts.Formation, opts.EmulateLocks, opts.LockReconvergence)
	return hex.EncodeToString(h.Sum(nil))
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// get loads the entry for key. Every failure mode — missing file, torn or
// truncated JSON, schema mismatch — is a miss, never an error.
func (c *Cache) get(key string) (*Report, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if json.Unmarshal(b, &e) != nil || e.Schema != cacheSchema || e.Report == nil {
		return nil, false
	}
	// Under a size cap, a hit refreshes the entry's recency so the LRU
	// eviction order tracks use, not just insertion. Best-effort: a
	// read-only directory merely loses recency tracking.
	if c.maxBytes.Load() > 0 {
		now := time.Now()
		os.Chtimes(c.path(key), now, now)
	}
	// Rebuild the lazily-built name index eagerly so a cached report is
	// indistinguishable (reflect.DeepEqual) from a freshly computed one —
	// the verification engine compares reports across matrix cells.
	e.Report.funcIndex = buildFuncIndex(e.Report.PerFunction)
	return e.Report, true
}

// put stores the report under key, atomically: the entry is written to a
// temp file in the same directory and renamed into place, so a concurrent
// reader (or a crashed writer) can never observe a partial entry. Failures
// are swallowed — a cache that cannot store is just a cache that misses.
func (c *Cache) put(key string, r *Report) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	b, err := json.Marshal(cacheEntry{Schema: cacheSchema, Report: r})
	if err != nil {
		return
	}
	f, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return
	}
	_, werr := f.Write(b)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(f.Name())
		return
	}
	if err := os.Rename(f.Name(), c.path(key)); err != nil {
		os.Remove(f.Name())
		return
	}
	c.evict()
}

// evict enforces the size cap, removing least-recently-used entries until
// the directory's entry bytes fit. Only entry files (key-named .json) are
// considered; in-flight put-*.tmp files and anything else sharing the
// directory are left alone.
func (c *Cache) evict() {
	max := c.maxBytes.Load()
	if max <= 0 {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var (
		entries []entry
		total   int64
	)
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, "put-") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries = append(entries, entry{name: name, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	if total <= max {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].name < entries[j].name
	})
	for _, e := range entries {
		if total <= max {
			break
		}
		// A failed removal (or one lost to a concurrent evictor) still
		// counts against the running total: the loop is bounded either way,
		// and the next store rescans from truth.
		os.Remove(filepath.Join(c.dir, e.name))
		total -= e.size
	}
}

// AnalyzeCached runs the full analyzer pipeline through the cache: a hit
// returns the stored report without validating, preparing, or replaying the
// trace; a miss computes and stores. A nil cache, or options carrying a
// Listener (which must observe a real replay), degrade to a plain Analyze.
// The boolean reports whether the result came from the cache.
func AnalyzeCached(c *Cache, t *trace.Trace, opts Options) (*Report, bool, error) {
	s := NewSession()
	s.SetCache(c)
	return s.AnalyzeCached(t, opts)
}
