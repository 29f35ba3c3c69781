package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// TestDecodeStrict: the strict ingestion decoder accepts exactly what a
// client can have meant to send — a complete indexed container or a bare
// stream — and rejects containers whose index tail was damaged, which the
// lenient decoders deliberately tolerate.
func TestDecodeStrict(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)))
	var v1, v3 bytes.Buffer
	if err := Encode(&v1, tr, 1); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&v3, tr, 3); err != nil {
		t.Fatal(err)
	}

	decode := func(data []byte) (*Trace, error) {
		return DecodeStrict(bytes.NewReader(data), int64(len(data)), 1)
	}

	for name, data := range map[string][]byte{"bare stream": v1.Bytes(), "indexed": v3.Bytes()} {
		got, err := decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: strict decode differs from lenient decode", name)
		}
	}

	full := v3.Bytes()
	for name, data := range map[string][]byte{
		"cut mid-trailer":     full[:len(full)-trailerSize/2],
		"cut mid-footer":      full[:len(full)-trailerSize-4],
		"trailing junk":       append(append([]byte(nil), v1.Bytes()...), 0xde, 0xad),
		"one extra zero byte": append(append([]byte(nil), v1.Bytes()...), 0),
	} {
		// The lenient decoder accepts all of these (the stream itself is
		// intact); strict ingestion must not.
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: lenient decode unexpectedly failed: %v", name, err)
		}
		if _, err := decode(data); err == nil {
			t.Fatalf("%s: strict decode accepted %d damaged bytes", name, len(data))
		}
	}
}

// TestMeasureSectionCanonical pins measureSection's canonical verdict at
// each field's boundary: the widest value the decoder keeps is canonical,
// one past it (a value the decoder would narrow) is not, and neither is an
// overlong varint or a Store/Release byte other than 0 or 1. Each section
// is walked as it is and followed by eight RET records, so fields near the
// end of the input and fields with eight bytes after them both run.
func TestMeasureSectionCanonical(t *testing.T) {
	u := binary.AppendUvarint
	overlong := func(v uint64) []byte { // v's varint with a redundant zero byte
		b := u(nil, v)
		b[len(b)-1] |= 0x80
		return append(b, 0)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	one, zero := []byte{1}, []byte{0}
	// access is one memory access or lock op: instr, address, and the
	// size and Store bytes or the Release byte.
	access := func(instr, addr []byte, flags ...byte) []byte { return cat(instr, addr, flags) }
	canonMem, canonLock := access(one, u(nil, 0x10), 8, 1), access(u(nil, 3), u(nil, 0x20), 0)
	// bbl is a BBL record in func fn, block 0, with 2 instructions, one
	// access and one lock op; nmem is the access count's bytes.
	bbl := func(fn, nmem, mem, lock []byte) []byte {
		return cat([]byte{byte(KindBBL)}, fn, zero, []byte{2}, nmem, mem, one, lock)
	}
	canonBBL := bbl(one, one, canonMem, canonLock)
	call := func(callee []byte) []byte { return cat([]byte{byte(KindCall)}, callee) }
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 2) // 65 bits
	for _, tc := range []struct {
		name     string
		tid, rec []byte
		want     bool
	}{
		{"canonical bbl", zero, canonBBL, true},
		{"func 0xFFFFFFFF", zero, bbl(u(nil, 0xFFFFFFFF), one, canonMem, canonLock), true},
		{"func 1<<32", zero, bbl(u(nil, 1<<32), one, canonMem, canonLock), false},
		{"func overlong", zero, bbl(overlong(1), one, canonMem, canonLock), false},
		{"access count overlong", zero, bbl(one, overlong(1), canonMem, canonLock), false},
		{"instr 0xFFFF", zero, bbl(one, one, access(u(nil, 0xFFFF), one, 8, 0), canonLock), true},
		{"instr 1<<16", zero, bbl(one, one, access(u(nil, 1<<16), one, 8, 0), canonLock), false},
		{"instr overlong", zero, bbl(one, one, access(overlong(1), one, 8, 0), canonLock), false},
		{"address 1<<56", zero, bbl(one, one, access(one, u(nil, 1<<56), 8, 0), canonLock), true},
		{"address max uint64", zero, bbl(one, one, access(one, u(nil, ^uint64(0)), 8, 0), canonLock), true},
		{"address overlong", zero, bbl(one, one, access(one, overlong(0x10), 8, 0), canonLock), false},
		{"address overflow", zero, bbl(one, one, access(one, overflow, 8, 0), canonLock), false},
		{"store 2", zero, bbl(one, one, access(one, one, 8, 2), canonLock), false},
		{"lock instr 1<<16", zero, bbl(one, one, canonMem, access(u(nil, 1<<16), one, 1)), false},
		{"lock address overlong", zero, bbl(one, one, canonMem, access(one, overlong(0x20), 1)), false},
		{"release 2", zero, bbl(one, one, canonMem, access(one, one, 2)), false},
		{"tid max uint64", u(nil, ^uint64(0)), canonBBL, true},
		{"tid overlong", overlong(0), canonBBL, false},
		{"callee 0xFFFFFFFF", zero, call(u(nil, 0xFFFFFFFF)), true},
		{"callee 1<<32", zero, call(u(nil, 1<<32)), false},
		{"skip n max uint64", zero, cat([]byte{byte(KindSkip), 0xff}, u(nil, ^uint64(0))), true},
	} {
		for _, rets := range []int{0, 8} {
			sec := cat(tc.tid, u(nil, uint64(1+rets)), tc.rec, bytes.Repeat([]byte{byte(KindRet)}, rets))
			en, canonical, err := measureSection(sec, 0)
			if err != nil {
				t.Fatalf("%s, %d RETs after: %v", tc.name, rets, err)
			}
			if en.len != int64(len(sec)) {
				t.Fatalf("%s, %d RETs after: measured %d of %d bytes", tc.name, rets, en.len, len(sec))
			}
			if canonical != tc.want {
				t.Errorf("%s, %d RETs after: canonical = %v, want %v", tc.name, rets, canonical, tc.want)
			}
		}
	}
	// Raw v1 addresses at the varint's limits, each in a one-thread v1 file
	// whose CanonicalKey verdict is checked against DecodeStrict: a
	// canonical file decodes, to the keyed digest and to what decoding over
	// the walk's index gives; an overlong address still decodes but is not
	// vouched for; an 11-byte varint overflows and is rejected.
	header := cat([]byte(magic), []byte{version1, 0, 0, 0, 1}) // no program, entry or functions; one thread
	for _, tc := range []struct {
		name          string
		addr          []byte
		want, decodes bool
	}{
		{"v1 address 1<<63", u(nil, 1<<63), true, true},
		{"v1 address max uint64", u(nil, ^uint64(0)), true, true},
		{"v1 address overlong", overlong(1 << 40), false, true},
		{"v1 address 11-byte overflow", append(bytes.Repeat([]byte{0xff}, 10), 1), false, false},
	} {
		for _, rets := range []int{0, 8} {
			rec := bbl(one, one, access(one, tc.addr, 8, 0), canonLock)
			sec := cat(zero, u(nil, uint64(1+rets)), rec, bytes.Repeat([]byte{byte(KindRet)}, rets))
			_, canonical, err := measureSection(sec, 0)
			if err != nil {
				t.Fatalf("%s, %d RETs after: %v", tc.name, rets, err)
			}
			if canonical != tc.want {
				t.Errorf("%s, %d RETs after: canonical = %v, want %v", tc.name, rets, canonical, tc.want)
			}
			data := cat(header, sec)
			k, ok := CanonicalKey(data)
			tr, serr := DecodeStrictBytes(data, 1)
			if ok != tc.want || (serr == nil) != tc.decodes {
				t.Fatalf("%s, %d RETs after: CanonicalKey ok = %v, DecodeStrict error %v", tc.name, rets, ok, serr)
			}
			if !ok {
				continue
			}
			if Digest(tr) != k.Sum {
				t.Errorf("%s, %d RETs after: keyed digest differs from the decoded trace's", tc.name, rets)
			}
			if got, err := k.Decode(data, 1); err != nil || !reflect.DeepEqual(got, tr) {
				t.Errorf("%s, %d RETs after: decoding over the walk's index: %v", tc.name, rets, err)
			}
		}
	}
}

// TestCanonicalKeyReusesWalk: the keyed handle carries the index its walk
// measured (the stream's own for v1 and v2, the footer's for v3), and
// Decode fills over it and the parsed header without reading either again:
// a copy whose program name and v3 trailer were scribbled over after keying
// still decodes, at every worker count, to the trace of the bytes keyed.
func TestCanonicalKeyReusesWalk(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(11)))
	for _, v := range []int{1, 2, 3} {
		var buf bytes.Buffer
		if err := Encode(&buf, tr, v); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		k, ok := CanonicalKey(data)
		if !ok {
			t.Fatalf("v%d: CanonicalKey refused Encode's output", v)
		}
		d := &bdec{data: data}
		h := d.header()
		want, _, err := measureStream(data, d.off, h.NumThreads)
		if err != nil {
			t.Fatal(err)
		}
		if v == 3 {
			r, err := NewReader(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			want = r.index
		}
		if !reflect.DeepEqual(k.index, want) {
			t.Errorf("v%d: keyed index %v, walk measured %v", v, k.index, want)
		}
		strict, err := DecodeStrictBytes(data, 1)
		if err != nil {
			t.Fatal(err)
		}
		scribbled := bytes.Clone(data)
		scribbled[len(magic)+2] ^= 0x20 // the program name's first byte
		if v == 3 {
			scribbled[len(scribbled)-1] ^= 0xff // the trailer magic
		}
		for _, workers := range []int{1, 4} {
			got, err := k.Decode(scribbled, workers)
			if err != nil {
				t.Fatalf("v%d/%d: %v", v, workers, err)
			}
			if !reflect.DeepEqual(got, strict) {
				t.Errorf("v%d/%d: keyed decode differs from DecodeStrict", v, workers)
			}
		}
	}
}
