package core

import (
	"encoding/hex"

	"threadfuser/internal/trace"
)

// SetReplayTestHook installs f to be called on every replay that actually
// runs (a cache hit never fires it) and returns a function restoring the
// previous hook. Tests outside this package — the cache's zero-replay-on-hit
// proof, the service's exactly-once singleflight proof — use it to count or
// gate replays. It is not synchronized with in-flight analyses: install it
// before starting work and restore it after the work has drained.
func SetReplayTestHook(f func()) (restore func()) {
	prev := testHookReplay
	testHookReplay = f
	return func() { testHookReplay = prev }
}

// SetDecodeTestHook installs f to be called on every decode of an upload
// body (Session.Upload and Upload.Trace) and returns a function restoring
// the previous hook. The service's tests use it to prove a cache hit on a
// canonical upload decodes nothing. Like SetReplayTestHook it is not
// synchronized with in-flight requests.
func SetDecodeTestHook(f func()) (restore func()) {
	prev := testHookDecode
	testHookDecode = f
	return func() { testHookDecode = prev }
}

// TraceDigest returns the hex-encoded content digest of a trace — the trace
// half of the report-cache key. It is trace.Digest, the SHA-256 of the
// trace's canonical v2 encoding, so the same trace digests identically
// whichever .tft version (or in-memory construction) it arrived through,
// and a trace over Encode's size caps still gets one. The analysis service
// does not call it: its singleflight dedup key is Upload.CacheKey, whose
// digest the request's analysis then reuses. The error is always nil.
func TraceDigest(t *trace.Trace) (string, error) {
	sum := trace.Digest(t)
	return hex.EncodeToString(sum[:]), nil
}

// CacheKey returns the full content-addressed key AnalyzeCached files a
// (trace, options) analysis under: the trace digest mixed with the schema
// tag and the semantic options (Parallelism, Listener, and Context excluded).
// The error is always nil.
func CacheKey(t *trace.Trace, opts Options) (string, error) {
	return NewSession().CacheKey(t, opts), nil
}
