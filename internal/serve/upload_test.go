package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"threadfuser/internal/core"
)

// uploadCases are the malformed .tft shapes an internet-facing upload
// handler must survive: each must produce a 4xx JSON error — never a panic,
// never a 5xx, and never a leaked admission or tenant slot.
func uploadCases(t *testing.T) map[string][]byte {
	t.Helper()
	v2 := tftBytes(t, testTrace(), false)
	v3 := tftBytes(t, testTrace(), true)
	return map[string][]byte{
		"empty body":         {},
		"garbage":            []byte("this is not a trace format"),
		"magic only":         v2[:4],
		"v2 cut mid-stream":  v2[:len(v2)/2],
		"v3 cut mid-trailer": v3[:len(v3)-6],
		"v3 cut mid-footer":  v3[:len(v3)-20],
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	if i < len(c) {
		c[i] ^= 0xff
	}
	return c
}

// assertNoLeak verifies every budget returned to zero after requests
// completed.
func assertNoLeak(t *testing.T, srv *Server, when string) {
	t.Helper()
	if q := srv.QueueInFlight(); q != 0 {
		t.Errorf("%s: admission queue holds %d slots", when, q)
	}
	if n := srv.TenantInFlight(DefaultTenant); n != 0 {
		t.Errorf("%s: tenant budget holds %d slots", when, n)
	}
	if n := srv.engine.InUse(); n != 0 {
		t.Errorf("%s: engine holds %d slots", when, n)
	}
}

// TestMalformedUploadsRejectedWithoutLeaks drives every malformed shape at
// every trace-upload endpoint.
func TestMalformedUploadsRejectedWithoutLeaks(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2})
	endpoints := []string{"/v1/analyze", "/v1/lint", "/v1/check"}
	for name, data := range uploadCases(t) {
		for _, ep := range endpoints {
			resp, err := ts.Client().Post(ts.URL+ep, "application/octet-stream", bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s %s: %v", name, ep, err)
			}
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("%s %s: status %d (%s), want 4xx", name, ep, resp.StatusCode, body.String())
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s: error content-type %q", name, ep, ct)
			}
			if !strings.Contains(body.String(), `"error"`) {
				t.Errorf("%s %s: error body carries no error field: %s", name, ep, body.String())
			}
			assertNoLeak(t, srv, name+" "+ep)
		}
	}
}

// TestUploadContentLengthMismatch: a body shorter than its declared
// Content-Length is a truncated upload — 400, not a hang or a 5xx. Driven
// through ServeHTTP directly since a real client would refuse to send it.
func TestUploadContentLengthMismatch(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2})
	data := tftBytes(t, testTrace(), true)
	req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(data))
	req.ContentLength = int64(len(data)) + 100
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("short body under long Content-Length: status %d (%s), want 400", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "truncated") {
		t.Fatalf("error does not name the truncation: %s", w.Body)
	}
	assertNoLeak(t, srv, "content-length mismatch")
}

// TestUploadTooLarge: bodies over the configured cap get 413 and leak
// nothing.
func TestUploadTooLarge(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2, MaxUploadBytes: 1024})
	big := make([]byte, 64<<10)
	resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/octet-stream", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d (%s), want 413", resp.StatusCode, body.String())
	}
	assertNoLeak(t, srv, "oversized upload")
}

// TestSpoolFailureIsServerError: an upload the server cannot spool fails
// with 500 and counts as the server's error, not the client's.
func TestSpoolFailureIsServerError(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2, SpoolDir: filepath.Join(t.TempDir(), "missing")})
	resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/octet-stream",
		bytes.NewReader(tftBytes(t, testTrace(), true)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("upload with no spool directory: status %d, want 500", resp.StatusCode)
	}
	if st := srv.Snapshot(); st.ServerErrors != 1 || st.ClientErrors != 0 {
		t.Fatalf("stats: %d server / %d client errors, want 1 / 0", st.ServerErrors, st.ClientErrors)
	}
	assertNoLeak(t, srv, "spool failure")
}

// countDecodes installs an upload-decode counter for the test's duration.
func countDecodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	restore := core.SetDecodeTestHook(func() { n.Add(1) })
	t.Cleanup(restore)
	return &n
}

// TestCanonicalUploadDecodesOnlyWhenNeeded: a v2/v3 upload in canonical
// form is keyed from its bytes, so a repeated analyze POST of it is a cache
// hit that decodes nothing, while a repeated v1 POST still decodes once per
// request; lint and check need the trace and decode a canonical upload
// exactly once.
func TestCanonicalUploadDecodesOnlyWhenNeeded(t *testing.T) {
	decodes := countDecodes(t)
	cache := core.NewCache(t.TempDir())
	_, ts := newTestServer(t, Config{MaxConcurrent: 2, Cache: cache})
	post := func(path string, body []byte) string {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, buf.String())
		}
		return resp.Header.Get("X-Tfserve-Cache")
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
		cache      string
		decodes    int64
	}{
		{"v3 analyze, first", "/v1/analyze?warp=8", tftBytes(t, testTrace(), true), "miss", 1},
		{"v3 analyze, repeated", "/v1/analyze?warp=8", tftBytes(t, testTrace(), true), "hit", 0},
		{"v1 analyze, repeated", "/v1/analyze?warp=8", tftBytes(t, testTrace(), false), "hit", 1},
		{"v1 analyze, again", "/v1/analyze?warp=8", tftBytes(t, testTrace(), false), "hit", 1},
		{"v3 lint", "/v1/lint?warp=8", tftBytes(t, testTrace(), true), "miss", 1},
		{"v3 check", "/v1/check?warps=4&parallel=1", tftBytes(t, testTrace(), true), "miss", 1},
	} {
		before := decodes.Load()
		if c := post(tc.path, tc.body); c != tc.cache {
			t.Errorf("%s: cache %q, want %q", tc.name, c, tc.cache)
		}
		if got := decodes.Load() - before; got != tc.decodes {
			t.Errorf("%s: %d decodes, want %d", tc.name, got, tc.decodes)
		}
	}
}

// FuzzUpload hammers the analyze upload handler with arbitrary bytes. The
// invariants are the handler's whole contract: no panic, no 5xx, and every
// admission/tenant/engine slot returned. Each input also goes to a second
// server whose report cache already holds the seed trace's analysis: a
// cached answer must never change the status an upload gets.
func FuzzUpload(f *testing.F) {
	v2 := tftBytes(f, testTrace(), false)
	v3 := tftBytes(f, testTrace(), true)
	f.Add([]byte{})
	f.Add([]byte("not a trace"))
	f.Add(v2)
	f.Add(v3)
	f.Add(v2[:len(v2)/2])
	f.Add(v3[:len(v3)-6])  // cut mid-trailer
	f.Add(v3[:len(v3)-20]) // cut mid-footer
	f.Add(flipByte(v3, len(v3)-10))

	cfg := Config{
		MaxConcurrent:  2,
		MaxUploadBytes: 1 << 20,
		RequestTimeout: 30 * time.Second,
	}
	srv := New(cfg)
	cache := core.NewCache(f.TempDir())
	cache.SetMaxBytes(8 << 20)
	cfg.Cache = cache
	warm := New(cfg)
	post := func(srv *Server, data []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/analyze?warp=4", bytes.NewReader(data))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}
	if w := post(warm, v3); w.Code != http.StatusOK {
		f.Fatalf("warming the cache: status %d: %s", w.Code, w.Body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := post(srv, data)
		if w.Code >= 500 {
			t.Fatalf("upload of %d bytes produced status %d: %s", len(data), w.Code, w.Body)
		}
		assertNoLeak(t, srv, "after fuzz upload")
		if c := post(warm, data); c.Code != w.Code {
			t.Fatalf("upload of %d bytes: status %d with a warm cache (%s), %d without (%s)",
				len(data), c.Code, c.Body, w.Code, w.Body)
		}
		assertNoLeak(t, warm, "after fuzz upload to the cached server")
	})
}
