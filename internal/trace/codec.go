package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// File format (".tft", ThreadFuser trace). Encode writes all three container
// versions; they share the header and the record layout, and differ only in
// how addresses are stored and in whether an index follows the threads:
//
//	header   magic "TFTR" | version uvarint | program string | entry uvarint
//	         nfuncs uvarint { name string, nblocks uvarint { ninstr uvarint } }
//	         nthreads uvarint
//	threads  nthreads × { tid uvarint, nrecords uvarint { record } }
//	footer   v3 only: the thread index and trailer (see codec3.go)
//
// record:
//
//	kind byte, then per kind:
//	  BBL : func uvarint, block uvarint, n uvarint,
//	        nmem uvarint { instr uvarint, addr uvarint, size byte, store byte },
//	        nlocks uvarint { instr uvarint, addr uvarint, release byte }
//	  CALL: callee uvarint
//	  RET : -
//	  SKIP: skipkind byte, n uvarint
//
// Strings are uvarint length + bytes. All integers are unsigned varints.
// Version 1 stores addresses raw. Versions 2 and 3 store each address as the
// zig-zag varint of its delta from the thread's previous address (0 at each
// thread start, so sections decode independently). Real traces are dominated
// by address bytes and consecutive accesses are near each other, so deltas
// shrink files severalfold, which matters at the paper's 42K-thread scale.
// The one production parser of these bytes is bdec (arena.go).

const (
	magic    = "TFTR"
	version1 = 1
	version2 = 2
	version3 = 3
)

// maxCount bounds the element counts a .tft stream may declare. Counts are
// attacker-controlled on untrusted input (the fuzz target feeds arbitrary
// bytes), so the decoder both rejects absurd declarations and caps slice
// preallocation, growing by append so memory tracks bytes actually read.
const maxCount = 1 << 20

// maxString bounds the byte length of a string in a .tft stream.
const maxString = 1 << 20

// Encode writes the trace to w in the given .tft container version: 1 (raw
// addresses), 2 (delta-encoded addresses) or 3 (v2 plus the thread index
// footer that Reader and the parallel decoders seek by). It is the one
// writer of .tft headers, thread sections and footers.
func Encode(w io.Writer, t *Trace, version int) error {
	if version < version1 || version > version3 {
		return fmt.Errorf("trace: encode: unsupported version %d", version)
	}
	index, err := sizeTrace(t)
	if err != nil {
		return err
	}
	e := &encoder{w: bufio.NewWriterSize(w, 1<<16), delta: version != version1}
	e.bytes([]byte(magic))
	e.uvarint(uint64(version))
	e.str(t.Program)
	e.uvarint(uint64(t.Entry))
	e.uvarint(uint64(len(t.Funcs)))
	for _, f := range t.Funcs {
		e.str(f.Name)
		e.uvarint(uint64(len(f.Blocks)))
		for _, b := range f.Blocks {
			e.uvarint(uint64(b.NInstr))
		}
	}
	e.uvarint(uint64(len(t.Threads)))
	headerLen := e.n
	for i, th := range t.Threads {
		index[i].off = e.n
		e.uvarint(uint64(th.TID))
		e.uvarint(uint64(len(th.Records)))
		e.prev = 0
		for j := range th.Records {
			e.record(&th.Records[j])
		}
		index[i].len = e.n - index[i].off
	}
	if version == version3 {
		footerOff := e.n
		e.uvarint(uint64(headerLen))
		e.uvarint(uint64(len(index)))
		for _, en := range index {
			for _, v := range [...]int64{int64(en.tid), en.off, en.len, en.nrec, en.nmem, en.nlock} {
				e.uvarint(uint64(v))
			}
		}
		var trailer [trailerSize]byte
		binary.LittleEndian.PutUint64(trailer[:8], uint64(e.n-footerOff))
		copy(trailer[8:], indexMagic)
		e.bytes(trailer[:])
	}
	return e.w.Flush()
}

// sizeTrace returns each thread's index entry with its tid and table sizes.
// It refuses, with an error naming the field, what the decoder would reject:
// a count over maxCount, a string over maxString bytes, an unknown kind.
func sizeTrace(t *Trace) ([]indexEntry, error) {
	if len(t.Program) > maxString {
		return nil, tooLarge("program name length", len(t.Program), maxString)
	}
	if len(t.Funcs) > maxCount {
		return nil, tooLarge("function count", len(t.Funcs), maxCount)
	}
	for i, f := range t.Funcs {
		if len(f.Name) > maxString {
			return nil, tooLarge(fmt.Sprintf("function %d name length", i), len(f.Name), maxString)
		}
		if len(f.Blocks) > maxCount {
			return nil, tooLarge(fmt.Sprintf("function %d block count", i), len(f.Blocks), maxCount)
		}
	}
	if len(t.Threads) > maxCount {
		return nil, tooLarge("thread count", len(t.Threads), maxCount)
	}
	index := make([]indexEntry, len(t.Threads))
	for i, th := range t.Threads {
		if len(th.Records) > maxCount {
			return nil, tooLarge(fmt.Sprintf("thread %d record count", th.TID), len(th.Records), maxCount)
		}
		en := indexEntry{tid: th.TID, nrec: int64(len(th.Records))}
		for j := range th.Records {
			r := &th.Records[j]
			switch r.Kind {
			case KindBBL:
				if len(r.Mem) > maxCount {
					return nil, tooLarge(fmt.Sprintf("thread %d record %d mem access count", th.TID, j), len(r.Mem), maxCount)
				}
				if len(r.Locks) > maxCount {
					return nil, tooLarge(fmt.Sprintf("thread %d record %d lock op count", th.TID, j), len(r.Locks), maxCount)
				}
				en.nmem += int64(len(r.Mem))
				en.nlock += int64(len(r.Locks))
			case KindCall, KindRet, KindSkip:
			default:
				return nil, fmt.Errorf("trace: encode: unknown record kind %d", r.Kind)
			}
		}
		index[i] = en
	}
	return index, nil
}

func tooLarge(field string, n, limit int) error {
	return fmt.Errorf("trace: encode: %s %d exceeds the decoder's limit of %d", field, n, limit)
}

// WriteFile encodes the trace to the named file in the v1 format.
func WriteFile(path string, t *Trace) error { return writeFile(path, t, version1) }

// WriteFileIndexed encodes the trace to the named file in the indexed v3
// format.
func WriteFileIndexed(path string, t *Trace) error { return writeFile(path, t, version3) }

func writeFile(path string, t *Trace, version int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, t, version); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encoder writes .tft fields through a bufio.Writer, whose errors are
// sticky: after a failed write every later one is a no-op and Flush reports
// the error, so the field writers need not check.
type encoder struct {
	w     *bufio.Writer
	buf   [binary.MaxVarintLen64]byte
	n     int64  // bytes written so far (byte offsets for the v3 index)
	delta bool   // addresses as zig-zag deltas (v2, v3) instead of raw (v1)
	prev  uint64 // the thread's previous address, for delta encoding
}

func (e *encoder) bytes(b []byte) {
	e.w.Write(b)
	e.n += int64(len(b))
}

func (e *encoder) byte(b byte) {
	e.w.WriteByte(b)
	e.n++
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.bytes(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// addr writes a memory or lock address in the container's address mode.
func (e *encoder) addr(a uint64) {
	if e.delta {
		e.uvarint(zigzag(int64(a - e.prev)))
		e.prev = a
		return
	}
	e.uvarint(a)
}

// record writes one record; sizeTrace has already rejected unknown kinds.
func (e *encoder) record(r *Record) {
	e.byte(byte(r.Kind))
	switch r.Kind {
	case KindBBL:
		e.uvarint(uint64(r.Func))
		e.uvarint(uint64(r.Block))
		e.uvarint(r.N)
		e.uvarint(uint64(len(r.Mem)))
		for _, m := range r.Mem {
			e.uvarint(uint64(m.Instr))
			e.addr(m.Addr)
			e.byte(m.Size)
			e.bool(m.Store)
		}
		e.uvarint(uint64(len(r.Locks)))
		for _, l := range r.Locks {
			e.uvarint(uint64(l.Instr))
			e.addr(l.Addr)
			e.bool(l.Release)
		}
	case KindCall:
		e.uvarint(uint64(r.Callee))
	case KindSkip:
		e.byte(byte(r.SkipKind))
		e.uvarint(r.N)
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Decode reads a trace in the .tft binary format. All format versions are
// accepted transparently: v1 (raw addresses), v2 (delta-encoded addresses),
// and v3 (delta-encoded with an index footer, whose table sizes the decoder
// uses when the footer validates). The input is slurped and decoded serially
// in memory by the columnar arena decoder (see arena.go); a decoded trace
// occupies several times its encoding anyway, so the extra resident bytes
// are bounded while the byte-slice hot path runs several times faster than
// stream decoding.
func Decode(r io.Reader) (*Trace, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return decode(data, 1, false)
}

// readAll slurps r, preallocating exactly when the reader can report its
// unread size (bytes.Reader, bytes.Buffer, strings.Reader).
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		data := make([]byte, l.Len())
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(r)
}

// preallocCap clamps a declared count to a safe initial slice capacity.
func preallocCap(n uint64) int {
	const lim = 1 << 12
	if n > lim {
		return lim
	}
	return int(n)
}
