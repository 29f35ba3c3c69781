package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// countFDs returns the process's open descriptor count via /proc/self/fd,
// or -1 where that interface doesn't exist (the test skips there).
func countFDs(t *testing.T) int {
	t.Helper()
	des, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(des)
}

// TestOpenFileNoFDLeak proves OpenFile's error paths, and ReadFileParallel's
// fallbacks from an open Reader to the whole-file decode, release the file
// handle: a server calls them once per untrusted upload, so even a one-fd
// leak per malformed input exhausts the process's descriptor table under
// sustained traffic. Each failing input is opened 1000 times; the
// descriptor count must be where it started.
func TestOpenFileNoFDLeak(t *testing.T) {
	if countFDs(t) < 0 {
		t.Skip("no /proc/self/fd on this platform")
	}
	dir := t.TempDir()
	tr := randomTrace(rand.New(rand.NewSource(23)))

	// Three early-return shapes: no index at all (v1), a corrupt footer
	// (trailer magic intact, bogus offsets), and a stat-able but truncated
	// trailer.
	v1 := filepath.Join(dir, "v1.tft")
	if err := WriteFile(v1, tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr, 3); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	corrupt := append([]byte(nil), full...)
	// Zero the footer region (keeping the trailer) so index decoding fails.
	for i := len(corrupt) - trailerSize - 8; i < len(corrupt)-trailerSize; i++ {
		corrupt[i] = 0xff
	}
	corruptPath := filepath.Join(dir, "corrupt.tft")
	if err := os.WriteFile(corruptPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	shortPath := filepath.Join(dir, "short.tft")
	if err := os.WriteFile(shortPath, full[:len(full)-trailerSize/2], 0o644); err != nil {
		t.Fatal(err)
	}

	paths := []string{v1, corruptPath, shortPath}
	for _, p := range paths {
		if _, err := OpenFile(p); !errors.Is(err, ErrNoIndex) {
			t.Fatalf("OpenFile(%s) error = %v, want ErrNoIndex", filepath.Base(p), err)
		}
	}

	before := countFDs(t)
	for i := 0; i < 1000; i++ {
		for _, p := range paths {
			if r, err := OpenFile(p); err == nil {
				r.Close()
				t.Fatalf("OpenFile(%s) unexpectedly succeeded", filepath.Base(p))
			}
		}
	}
	// Allow a little slack for runtime-internal descriptors (netpoll etc.)
	// that can appear lazily; a real leak here would be ~3000 fds.
	if after := countFDs(t); after > before+5 {
		t.Fatalf("descriptor count grew %d -> %d across 3000 failed opens", before, after)
	}

	// ReadFileParallel opens every file as a Reader first, and must release
	// it on each fallback: no index (v1, corrupt footer, short trailer), and
	// a footer that validates but that the stream contradicts (lying), which
	// the fill finds only after the open succeeded.
	lying := filepath.Join(dir, "lying.tft")
	if err := os.WriteFile(lying, LyingAccessIndex(full), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(lying); err != nil {
		t.Fatalf("OpenFile(lying.tft): %v", err)
	}
	paths = append(paths, lying)
	for _, p := range paths {
		got, err := ReadFileParallel(p, 1)
		if err != nil {
			t.Fatalf("ReadFileParallel(%s): %v", filepath.Base(p), err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("ReadFileParallel(%s) differs from the encoded trace", filepath.Base(p))
		}
	}
	before = countFDs(t)
	for i := 0; i < 1000; i++ {
		for _, p := range paths {
			if _, err := ReadFileParallel(p, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := countFDs(t); after > before+5 {
		t.Fatalf("descriptor count grew %d -> %d across 4000 fallback reads", before, after)
	}

	// The success path must keep exactly one handle and release it on Close.
	good := filepath.Join(dir, "good.tft")
	if err := WriteFileIndexed(good, tr); err != nil {
		t.Fatal(err)
	}
	base := countFDs(t)
	r, err := OpenFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if during := countFDs(t); during != base+1 {
		t.Errorf("open reader holds %d new fds, want 1", during-base)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if after := countFDs(t); after != base {
		t.Errorf("descriptor count %d after Close, want %d", after, base)
	}
}
