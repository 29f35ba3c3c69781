package core

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"threadfuser/internal/trace"
)

// TestUploadDecodesOnce: a canonical upload of any version is keyed
// without a decode, and concurrent jobs on it share one decode, whose
// digest memo entry is the upload's key.
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
	}{{3, 0}, {2, 0}, {1, 0}} {
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

// TestKeyedMissDecodesOnce: a cache miss on a keyed upload of any version
// decodes the body once, over the keying walk's index, to the trace strict
// decode gives, and reports what Analyze reports for that trace; a repeat
// on the same session is a hit that decodes nothing more.
func TestKeyedMissDecodesOnce(t *testing.T) {
	var decodes atomic.Int64
	testHookDecode = func() { decodes.Add(1) }
	t.Cleanup(func() { testHookDecode = nil })
	tr := cacheTestTrace()
	opts := Defaults()
	want, err := Analyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2, 3} {
		decodes.Store(0)
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr, v); err != nil {
			t.Fatal(err)
		}
		strict, err := trace.DecodeStrictBytes(buf.Bytes(), 1)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession()
		s.SetCache(NewCache(t.TempDir()))
		u, err := s.Upload(buf.Bytes(), 2)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		rep, hit, err := u.AnalyzeCached(opts)
		if err != nil || hit {
			t.Fatalf("v%d: first analysis: hit %v, error %v", v, hit, err)
		}
		if got := decodes.Load(); got != 1 {
			t.Errorf("v%d: %d decodes on a miss, want 1", v, got)
		}
		got, _ := u.Trace()
		if !reflect.DeepEqual(got, strict) {
			t.Errorf("v%d: the keyed decode differs from DecodeStrict's trace", v)
		}
		if reportJSON(t, rep) != reportJSON(t, want) {
			t.Errorf("v%d: keyed miss report differs from Analyze", v)
		}
		if _, hit, err := u.AnalyzeCached(opts); err != nil || !hit {
			t.Fatalf("v%d: repeat analysis: hit %v, error %v", v, hit, err)
		}
		if got := decodes.Load(); got != 1 {
			t.Errorf("v%d: %d decodes after a repeat, want 1", v, got)
		}
	}
}
