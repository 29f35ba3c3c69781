package trace

import (
	"bytes"
	"crypto/sha256"
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
//
// The one writer of these bytes is encoder, run by Encode and by Digest;
// the one production parser is bdec (arena.go). The v2 header and thread
// sections are a trace's canonical encoding: Digest hashes them, and since
// decoding inverts them, the report cache keys a trace by its content
// whichever container version it arrived in. A v2 or v3 file the encoder
// wrote holds those sections verbatim, and a v1 file differs from them only
// in its addresses, so CanonicalKey hashes them without decoding.

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
// footer that Reader and the parallel decoders seek by). It returns the
// first error w reports and writes nothing after it.
func Encode(w io.Writer, t *Trace, version int) error {
	if version < version1 || version > version3 {
		return fmt.Errorf("trace: encode: unsupported version %d", version)
	}
	index, err := sizeTrace(t)
	if err != nil {
		return err
	}
	e := newEncoder(w)
	e.buf = appendHeader(e.buf, t.header(version))
	headerLen := e.pos()
	for i, th := range t.Threads {
		index[i].off = e.pos()
		e.section(th, version != version1)
		index[i].len = e.pos() - index[i].off
		if e.err != nil {
			return e.err
		}
	}
	if version == version3 {
		b, footerAt := e.buf, len(e.buf)
		b = binary.AppendUvarint(b, uint64(headerLen))
		b = binary.AppendUvarint(b, uint64(len(index)))
		for _, en := range index {
			for _, v := range [...]int64{int64(en.tid), en.off, en.len, en.nrec, en.nmem, en.nlock} {
				b = binary.AppendUvarint(b, uint64(v))
			}
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(len(b)-footerAt))
		e.buf = append(b, indexMagic...)
	}
	e.flush()
	return e.err
}

// Digest returns the SHA-256 of the trace's canonical encoding: its v2
// header and thread sections, without a footer. The codec round-trips, so
// equal digests mean equal traces whichever container version (or
// in-memory construction) they came from. Unlike Encode it applies no size
// caps, so a trace too large to encode still gets a digest.
func Digest(t *Trace) [sha256.Size]byte {
	h := sha256.New()
	e := newEncoder(h)
	e.buf = appendHeader(e.buf, t.header(version2))
	for _, th := range t.Threads {
		e.section(th, true)
	}
	e.flush()
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Keyed is a .tft body keyed from its own bytes by CanonicalKey. Sum is
// the Digest of the trace the body decodes to; the rest is what the keying
// walk parsed (the header and the index of thread sections), so Decode
// fills the arena over that index without measuring the stream again or
// re-validating a v3 footer.
type Keyed struct {
	Sum   [sha256.Size]byte
	hdr   *Header
	index []indexEntry
}

// CanonicalKey computes the Digest of the trace data holds from data's own
// bytes, without decoding them. ok is true only when DecodeStrict(data) is
// sure to succeed with a trace whose Digest is the sum: data is a v1 or v2
// stream that ends at its last thread section, or a v3 container whose
// index validates and describes every section exactly as the stream
// measures it, and every section is canonical (measureSection). The sum
// hashes a v2 header rebuilt from the parsed one followed by the sections:
// v2 and v3 sections as they are, since canonical sections are what the
// encoder writes, and v1 sections with each raw address rewritten as the
// delta the encoder writes (appendDeltaSection). A section in a
// non-canonical form, and anything strict decode might reject, give false;
// a caller then decodes data and hashes the trace.
func CanonicalKey(data []byte) (k *Keyed, ok bool) {
	d := &bdec{data: data}
	h := d.header()
	if d.err != nil {
		return nil, false
	}
	var index []indexEntry
	if h.Version == version3 {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return nil, false
		}
		index = r.index
	} else {
		index = make([]indexEntry, 0, preallocCap(uint64(h.NumThreads)))
	}
	v2 := *h
	v2.Version = version2
	hash := sha256.New()
	hash.Write(appendHeader(nil, &v2))
	var buf []byte // a v1 section's v2 bytes, reused across sections
	off := d.off
	for i := 0; i < h.NumThreads; i++ {
		en, canonical, err := measureSection(data, off)
		if err != nil || !canonical || h.Version == version3 && en != index[i] {
			return nil, false
		}
		sec := data[off : off+int(en.len)]
		if h.Version == version1 {
			buf = appendDeltaSection(buf[:0], sec, en.nmem+en.nlock)
			sec = buf
		}
		hash.Write(sec)
		if h.Version != version3 {
			index = append(index, en)
		}
		off += int(en.len)
	}
	// A v3 index that matched every section tiles the stream up to its
	// footer; a bare stream must end at its last section.
	if h.Version != version3 && off != len(data) {
		return nil, false
	}
	k = &Keyed{hdr: h, index: index}
	hash.Sum(k.Sum[:0])
	return k, true
}

// Decode decodes data, the bytes k was keyed from, as DecodeStrictBytes
// would, filling the arena over the keying walk's index with up to workers
// goroutines. fill still checks every section against the index.
func (k *Keyed) Decode(data []byte, workers int) (*Trace, error) {
	a, err := fill(data, nil, k.index, k.hdr.Version == version1, workers)
	if err != nil {
		return nil, err
	}
	return a.Trace(k.hdr.Program, k.hdr.Entry, k.hdr.Funcs), nil
}

// sizeTrace returns each thread's index entry with its tid and table sizes.
// It refuses, with an error naming the field, what the decoder would reject:
// a count over maxCount, a string over maxString bytes, an unknown kind. It
// also refuses a block record whose ranges lie outside its thread's tables,
// which the encoder reads through MemOf and LocksOf.
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
				mlo, mhi, llo, lhi := th.bounds(j)
				if !th.fits(mlo, mhi, llo, lhi) {
					return nil, fmt.Errorf("trace: encode: thread %d record %d: access or lock range lies outside the thread's tables", th.TID, j)
				}
				if mhi-mlo > maxCount {
					return nil, tooLarge(fmt.Sprintf("thread %d record %d mem access count", th.TID, j), mhi-mlo, maxCount)
				}
				if lhi-llo > maxCount {
					return nil, tooLarge(fmt.Sprintf("thread %d record %d lock op count", th.TID, j), lhi-llo, maxCount)
				}
				en.nmem += int64(mhi - mlo)
				en.nlock += int64(lhi - llo)
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

// flushAt is the buffered byte count past which an encoder hands its
// buffer to w.
const flushAt = 64 << 10

// encoder appends .tft bytes into one reused buffer and hands the buffer to
// w each time it passes flushAt. It is the one writer of trace fields as
// bytes: Encode and Digest both run it.
type encoder struct {
	w   io.Writer
	buf []byte
	off int64 // bytes handed to w so far
	err error // the first error w reported; nothing is written after it
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, buf: make([]byte, 0, flushAt+flushAt/8)}
}

// pos returns the byte offset of the next appended byte.
func (e *encoder) pos() int64 { return e.off + int64(len(e.buf)) }

// flush hands the buffer to w unless an earlier write failed.
func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		n, err := e.w.Write(e.buf)
		if err == nil && n < len(e.buf) {
			err = io.ErrShortWrite
		}
		e.off += int64(n)
		e.err = err
	}
	e.buf = e.buf[:0]
}

// header returns t's .tft header in the given version.
func (t *Trace) header(version int) *Header {
	return &Header{Version: version, Program: t.Program, Entry: t.Entry, Funcs: t.Funcs, NumThreads: len(t.Threads)}
}

// appendHeader appends the .tft encoding of h.
func appendHeader(b []byte, h *Header) []byte {
	b = append(b, magic...)
	b = binary.AppendUvarint(b, uint64(h.Version))
	b = appendString(b, h.Program)
	b = binary.AppendUvarint(b, uint64(h.Entry))
	b = binary.AppendUvarint(b, uint64(len(h.Funcs)))
	for _, f := range h.Funcs {
		b = appendString(b, f.Name)
		b = binary.AppendUvarint(b, uint64(len(f.Blocks)))
		for _, blk := range f.Blocks {
			b = binary.AppendUvarint(b, uint64(blk.NInstr))
		}
	}
	return binary.AppendUvarint(b, uint64(h.NumThreads))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// section appends thread th's section: its tid, record count and records,
// with addresses raw or, when delta is set, as the zig-zag varint of their
// delta from the thread's previous address (0 at the thread's start). It
// flushes between records, so the buffer stays near flushAt however long
// the thread is. Unknown record kinds are written as their kind byte alone;
// Encode's sizeTrace has refused them already.
func (e *encoder) section(th *ThreadTrace, delta bool) {
	b := binary.AppendUvarint(e.buf, uint64(th.TID))
	b = binary.AppendUvarint(b, uint64(len(th.Records)))
	var prev uint64
	addr := func(b []byte, a uint64) []byte {
		if !delta {
			return binary.AppendUvarint(b, a)
		}
		return appendDelta(b, a, &prev)
	}
	for i := range th.Records {
		if len(b) >= flushAt {
			e.buf = b
			e.flush()
			b = e.buf
		}
		r := &th.Records[i]
		b = append(b, byte(r.Kind))
		switch r.Kind {
		case KindBBL:
			b = binary.AppendUvarint(b, uint64(r.Func))
			b = binary.AppendUvarint(b, uint64(r.Block))
			b = binary.AppendUvarint(b, r.N)
			mem := th.MemOf(i)
			b = binary.AppendUvarint(b, uint64(len(mem)))
			for _, m := range mem {
				b = binary.AppendUvarint(b, uint64(m.Instr))
				b = addr(b, m.Addr)
				b = append(b, m.Size, boolByte(m.Store))
			}
			locks := th.LocksOf(i)
			b = binary.AppendUvarint(b, uint64(len(locks)))
			for _, l := range locks {
				b = binary.AppendUvarint(b, uint64(l.Instr))
				b = addr(b, l.Addr)
				b = append(b, boolByte(l.Release))
			}
		case KindCall:
			b = binary.AppendUvarint(b, uint64(r.Callee))
		case KindSkip:
			b = append(b, byte(r.SkipKind))
			b = binary.AppendUvarint(b, r.N)
		}
	}
	e.buf = b
	if len(b) >= flushAt {
		e.flush()
	}
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// appendDelta appends address a as the zig-zag varint of its delta from
// *prev and makes a the new *prev. It is the one writer of v2 address
// bytes: the encoder and CanonicalKey's v1 rewrite both run it.
func appendDelta(b []byte, a uint64, prev *uint64) []byte {
	d := zigzag(int64(a - *prev))
	*prev = a
	return binary.AppendUvarint(b, d)
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
