package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// evictFixture stores n entries (distinct warp sizes -> distinct keys) and
// returns the cache plus the entries' keys in storage order. mtimes are
// pinned to strictly increasing instants well in the past so eviction order
// is controlled by the test, not by filesystem timestamp granularity.
func evictFixture(t *testing.T, n int) (*Cache, []string) {
	t.Helper()
	c := NewCache(t.TempDir())
	tr := cacheTestTrace()
	keys := make([]string, n)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < n; i++ {
		opts := Defaults()
		opts.WarpSize = 2 + i // distinct key per entry
		rep, err := Analyze(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		key, err := CacheKey(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		c.put(key, rep)
		keys[i] = key
		stamp := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c.path(key), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	return c, keys
}

func entrySize(t *testing.T, c *Cache, key string) int64 {
	t.Helper()
	info, err := os.Stat(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func present(c *Cache, key string) bool {
	_, err := os.Stat(c.path(key))
	return err == nil
}

// TestCacheEvictsLRUOrder: with a cap that fits only the two newest entries,
// a store evicts the oldest entries first and leaves the rest untouched.
func TestCacheEvictsLRUOrder(t *testing.T) {
	c, keys := evictFixture(t, 4)
	// Cap = sizes of the two newest entries (all entries are equal-sized
	// modulo a few bytes of numeric variation; sum the exact two).
	c.SetMaxBytes(entrySize(t, c, keys[2]) + entrySize(t, c, keys[3]))
	c.evict()
	if present(c, keys[0]) || present(c, keys[1]) {
		t.Fatalf("oldest entries survived eviction: %v %v", present(c, keys[0]), present(c, keys[1]))
	}
	if !present(c, keys[2]) || !present(c, keys[3]) {
		t.Fatalf("newest entries evicted: %v %v", present(c, keys[2]), present(c, keys[3]))
	}
	// The survivors must still be readable hits.
	for _, key := range keys[2:] {
		if _, ok := c.get(key); !ok {
			t.Errorf("surviving entry %s does not hit", key[:12])
		}
	}
}

// TestCacheHitRefreshesRecency: a get on the oldest entry refreshes its
// mtime, so the next eviction removes the second-oldest instead.
func TestCacheHitRefreshesRecency(t *testing.T) {
	c, keys := evictFixture(t, 3)
	c.SetMaxBytes(entrySize(t, c, keys[0]) + entrySize(t, c, keys[2]))
	// Touch the oldest entry via a hit; recency refresh only happens under
	// a size cap, which is already set.
	if _, ok := c.get(keys[0]); !ok {
		t.Fatal("expected a hit on entry 0")
	}
	c.evict()
	if !present(c, keys[0]) {
		t.Fatal("entry 0 evicted despite recency refresh from a hit")
	}
	if present(c, keys[1]) {
		t.Fatal("entry 1 survived; it was the least recently used")
	}
	if !present(c, keys[2]) {
		t.Fatal("newest entry evicted")
	}
}

// TestCachePutEnforcesCap: the eviction runs as part of put, not only when
// called directly.
func TestCachePutEnforcesCap(t *testing.T) {
	c, keys := evictFixture(t, 2)
	c.SetMaxBytes(entrySize(t, c, keys[0]) * 2)
	tr := cacheTestTrace()
	opts := Defaults()
	opts.WarpSize = 16
	rep, err := Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.put(key, rep)
	if !present(c, key) {
		t.Fatal("just-stored entry missing (it is the most recent; eviction must prefer older ones)")
	}
	if present(c, keys[0]) {
		t.Fatal("oldest entry survived a put that exceeded the cap")
	}
}

// TestCacheEvictionSkipsForeignFiles: non-entry files sharing the directory
// (in-flight temp files, stray notes) are never removed and never counted
// against the cap.
func TestCacheEvictionSkipsForeignFiles(t *testing.T) {
	c, keys := evictFixture(t, 2)
	foreign := []string{"put-123.tmp", "README", "sub.json.bak"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(c.Dir(), name), make([]byte, 1<<16), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Cap fits both entries but not the foreign bytes: nothing may be
	// evicted, because foreign files don't count.
	c.SetMaxBytes(entrySize(t, c, keys[0]) + entrySize(t, c, keys[1]))
	c.evict()
	for _, key := range keys {
		if !present(c, key) {
			t.Errorf("entry %s evicted under a cap that fits all entries", key[:12])
		}
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(c.Dir(), name)); err != nil {
			t.Errorf("foreign file %s removed by eviction", name)
		}
	}
}

// TestCacheCorruptedEntryDegradesToReplay: an entry truncated on disk (the
// shape a crashed evictor or torn copy would leave if atomicity ever broke)
// is a miss that recomputes — AnalyzeCached never surfaces it as an error.
func TestCacheCorruptedEntryDegradesToReplay(t *testing.T) {
	c := NewCache(t.TempDir())
	tr := cacheTestTrace()
	opts := Defaults()
	replays := countReplays(t)

	if _, hit, err := AnalyzeCached(c, tr, opts); err != nil || hit {
		t.Fatalf("first analysis: hit=%v err=%v", hit, err)
	}
	key, err := CacheKey(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the entry mid-JSON.
	if err := os.Truncate(c.path(key), 10); err != nil {
		t.Fatal(err)
	}
	rep, hit, err := AnalyzeCached(c, tr, opts)
	if err != nil {
		t.Fatalf("analysis over corrupt entry: %v", err)
	}
	if hit {
		t.Fatal("corrupt entry served as a hit")
	}
	if rep == nil || *replays != 2 {
		t.Fatalf("expected a second replay after corruption, got %d", *replays)
	}
	// The recompute must repair the entry: next call hits.
	if _, hit, err := AnalyzeCached(c, tr, opts); err != nil || !hit {
		t.Fatalf("post-repair analysis: hit=%v err=%v", hit, err)
	}
}
