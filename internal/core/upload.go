package core

import (
	"crypto/sha256"
	"sync"

	"threadfuser/internal/trace"
)

// Upload is an untrusted .tft body handed to a session, keyed before it is
// decoded. A body that trace.CanonicalKey vouches for (a container of any
// version in the codec's canonical form, which is what Encode writes) is
// keyed from its own bytes and decoded at most once, the first time a job
// needs its trace, over the index the keying walk measured; an analysis
// that hits the report cache never decodes it. Any other body is decoded
// when the Upload is made and keyed from the decoded trace, so it is
// rejected exactly where trace.DecodeStrict rejects it.
//
// An Upload is safe for concurrent use.
type Upload struct {
	s           *Session
	sum         [sha256.Size]byte
	parallelism int

	once sync.Once
	body []byte       // the undecoded body; dropped once decoded
	key  *trace.Keyed // the keying walk's result; dropped once decoded
	t    *trace.Trace
	err  error
}

// Upload keys body, decoding it now unless trace.CanonicalKey vouches for
// it (see Upload). The session keeps body until it is decoded, so the
// caller must not modify it. parallelism is the decode's worker count, as
// for trace.DecodeStrict, and the error is DecodeStrict's.
func (s *Session) Upload(body []byte, parallelism int) (*Upload, error) {
	u := &Upload{s: s, parallelism: parallelism}
	if k, ok := trace.CanonicalKey(body); ok {
		u.sum, u.body, u.key = k.Sum, body, k
		return u, nil
	}
	u.once.Do(func() { u.t, u.err = decodeUpload(body, nil, parallelism) })
	if u.err != nil {
		return nil, u.err
	}
	u.sum = s.digest(u.t)
	return u, nil
}

// testHookDecode, when non-nil, is called on every decode of an upload
// body (see SetDecodeTestHook).
var testHookDecode func()

// decodeUpload strictly decodes an upload body in place: over the keying
// walk's index when k is set, with a full strict decode otherwise.
func decodeUpload(body []byte, k *trace.Keyed, parallelism int) (*trace.Trace, error) {
	if testHookDecode != nil {
		testHookDecode()
	}
	if k != nil {
		return k.Decode(body, parallelism)
	}
	return trace.DecodeStrictBytes(body, parallelism)
}

// Trace returns the upload's trace, decoding the body on first use. The
// decode seeds the session's digest memo with the upload's key, so the
// trace is never hashed, and drops the body and the walk's index.
func (u *Upload) Trace() (*trace.Trace, error) {
	u.once.Do(func() {
		u.t, u.err = decodeUpload(u.body, u.key, u.parallelism)
		u.body, u.key = nil, nil
		if u.err == nil {
			// u.t is new, so the seed lands.
			u.s.digests.Get(u.t, func() ([sha256.Size]byte, error) { return u.sum, nil })
		}
	})
	return u.t, u.err
}

// CacheKey returns the report-cache key of the upload's analysis under
// opts, as Session.CacheKey would for its trace, without decoding it.
func (u *Upload) CacheKey(opts Options) string {
	return cacheKeyFromDigest(u.sum, opts)
}

// AnalyzeCached is Session.AnalyzeCached over the upload's trace: a report
// cache hit returns without decoding the body, and a miss decodes it
// (once) and analyzes it.
func (u *Upload) AnalyzeCached(opts Options) (*Report, bool, error) {
	return u.s.analyzeCached(opts, func() [sha256.Size]byte { return u.sum }, u.Trace)
}
