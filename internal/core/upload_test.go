package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"threadfuser/internal/trace"
)

// TestUploadDecodesOnce: a canonical upload is keyed without a decode, and
// concurrent jobs on it share one decode, whose digest memo entry is the
// upload's key. A v1 upload decodes when it is made, and only then.
func TestUploadDecodesOnce(t *testing.T) {
	var decodes atomic.Int64
	testHookDecode = func() { decodes.Add(1) }
	t.Cleanup(func() { testHookDecode = nil })
	tr := cacheTestTrace()
	opts := Defaults()
	want, err := CacheKey(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version  int
		atUpload int64
	}{{3, 0}, {2, 0}, {1, 1}} {
		decodes.Store(0)
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr, tc.version); err != nil {
			t.Fatal(err)
		}
		s := NewSession()
		s.SetCache(NewCache(t.TempDir()))
		u, err := s.Upload(buf.Bytes(), 0)
		if err != nil {
			t.Fatalf("v%d: %v", tc.version, err)
		}
		if got := decodes.Load(); got != tc.atUpload {
			t.Errorf("v%d: %d decodes when the upload was made, want %d", tc.version, got, tc.atUpload)
		}
		if k := u.CacheKey(opts); k != want {
			t.Errorf("v%d: upload key %s, trace key %s", tc.version, k, want)
		}
		var wg sync.WaitGroup
		traces := make([]*trace.Trace, 8)
		for i := range traces {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if traces[i], err = u.Trace(); err != nil {
					t.Errorf("v%d: Trace: %v", tc.version, err)
				}
				if _, _, err := u.AnalyzeCached(opts); err != nil {
					t.Errorf("v%d: AnalyzeCached: %v", tc.version, err)
				}
			}()
		}
		wg.Wait()
		if got := decodes.Load(); got != 1 {
			t.Errorf("v%d: %d decodes across concurrent jobs, want 1", tc.version, got)
		}
		for i := range traces {
			if traces[i] != traces[0] {
				t.Fatalf("v%d: concurrent jobs got different traces", tc.version)
			}
		}
		if k := s.CacheKey(traces[0], opts); k != want {
			t.Errorf("v%d: session memo keys the decoded trace %s, want %s", tc.version, k, want)
		}
	}
}
