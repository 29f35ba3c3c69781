package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
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

// TestSpoolFailureIsServerError: uploads are read into memory, never
// spooled, so a SpoolDir that does not exist (the field is deprecated and
// ignored) no longer affects an upload: it is analyzed, and no server
// error is counted.
func TestSpoolFailureIsServerError(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2, SpoolDir: filepath.Join(t.TempDir(), "missing")})
	resp, err := ts.Client().Post(ts.URL+"/v1/analyze", "application/octet-stream",
		bytes.NewReader(tftBytes(t, testTrace(), true)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload with no spool directory: status %d, want 200", resp.StatusCode)
	}
	if st := srv.Snapshot(); st.ServerErrors != 0 || st.ClientErrors != 0 || st.Completed != 1 {
		t.Fatalf("stats: %d server / %d client errors, %d completed, want 0 / 0, 1",
			st.ServerErrors, st.ClientErrors, st.Completed)
	}
	assertNoLeak(t, srv, "ignored spool directory")
}

// unreadBody fails the test if the handler reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the handler read a body whose declared length is over the cap")
	return 0, io.EOF
}

// TestUploadTooLargeBeforeRead: a declared Content-Length over the cap is
// refused with 413 before any byte of the body is read, however small the
// body actually is.
func TestUploadTooLargeBeforeRead(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2, MaxUploadBytes: 1024})
	req := httptest.NewRequest("POST", "/v1/analyze", unreadBody{t})
	req.ContentLength = 1025
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared length over the cap: status %d (%s), want 413", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "exceeds 1024-byte limit") {
		t.Fatalf("error does not name the limit: %s", w.Body)
	}
	assertNoLeak(t, srv, "declared oversize upload")
}

// TestChunkedUpload: a body without a declared length is read whole under
// the cap: a trace is analyzed, and a body over the cap gets 413.
func TestChunkedUpload(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2, MaxUploadBytes: 1024})
	var declared atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		declared.Store(r.ContentLength)
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	post := func(body []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/analyze", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = -1 // unknown: the client sends chunks
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if n := declared.Load(); n != -1 {
			t.Fatalf("the server saw a declared length of %d, want a chunked body", n)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, body := post(tftBytes(t, testTrace(), true)); code != http.StatusOK {
		t.Fatalf("chunked trace upload: status %d (%s), want 200", code, body)
	}
	if code, body := post(make([]byte, 4096)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize upload: status %d (%s), want 413", code, body)
	}
	assertNoLeak(t, srv, "chunked uploads")
}

// TestStalledUploadTimesOut: a client that sends its headers and part of
// the body, then stalls, gets 408 within the request deadline instead of
// holding its admission and tenant slots, and counts as a client error.
// A client that completes its body on a kept-alive connection is served,
// and so is its next request on the same connection.
func TestStalledUploadTimesOut(t *testing.T) {
	const timeout = 300 * time.Millisecond
	srv, ts := newTestServer(t, Config{MaxConcurrent: 2, RequestTimeout: timeout})
	data := tftBytes(t, testTrace(), true)
	head := fmt.Sprintf("POST /v1/analyze HTTP/1.1\r\nHost: tfserve\r\nContent-Length: %d\r\n\r\n", len(data))
	dial := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		return conn, bufio.NewReader(conn)
	}

	conn, br := dial()
	start := time.Now()
	if _, err := io.WriteString(conn, head+string(data[:len(data)/2])); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("stalled upload got no response: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > timeout+2*time.Second {
		t.Errorf("stalled upload answered after %v, deadline %v", elapsed, timeout)
	}
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled upload: status %d, want 408", resp.StatusCode)
	}
	assertNoLeak(t, srv, "stalled upload")
	if st := srv.Snapshot(); st.ClientErrors != 1 || st.ServerErrors != 0 {
		t.Fatalf("stats: %d client / %d server errors, want 1 / 0", st.ClientErrors, st.ServerErrors)
	}

	// Two whole requests on one kept-alive connection, the second sent
	// after the first's read deadline has passed.
	conn, br = dial()
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(conn, head+string(data)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d on a kept-alive connection: %v", i+1, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d on a kept-alive connection: status %d, want 200", i+1, resp.StatusCode)
		}
		time.Sleep(2 * timeout)
	}
	assertNoLeak(t, srv, "kept-alive requests")
}

// countDecodes installs an upload-decode counter for the test's duration.
func countDecodes(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	restore := core.SetDecodeTestHook(func() { n.Add(1) })
	t.Cleanup(restore)
	return &n
}

// TestCanonicalUploadDecodesOnlyWhenNeeded: an upload in canonical form,
// of any version, is keyed from its bytes, so a repeated analyze POST of it
// is a cache hit that decodes nothing; lint and check need the trace and
// decode a canonical upload exactly once.
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
		{"v1 analyze, repeated", "/v1/analyze?warp=8", tftBytes(t, testTrace(), false), "hit", 0},
		{"v1 analyze, again", "/v1/analyze?warp=8", tftBytes(t, testTrace(), false), "hit", 0},
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
