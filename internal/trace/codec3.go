package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Version 3 of the .tft format keeps the v2 delta-encoded record stream but
// appends a per-thread index footer, so readers can decode the header (the
// function table) without touching thread data and can seek to any thread
// independently. That is what makes paper-scale ingest parallel: a 42K-thread
// trace decodes one thread section per worker instead of one byte stream per
// file.
//
// Layout:
//
//	header   magic "TFTR" | version=3 | program | entry | functable | nthreads
//	threads  nthreads × { tid uvarint, nrecords uvarint, v2-encoded records }
//	         (address deltas reset at each thread, as in v2)
//	footer   headerlen uvarint | nthreads uvarint
//	         nthreads × { tid uvarint, offset uvarint, length uvarint,
//	                      nrecords uvarint, nmem uvarint, nlocks uvarint }
//	         (offsets are absolute file offsets of each thread section;
//	         nrecords/nmem/nlocks are the section's table sizes, which let a
//	         parallel decode preallocate exact columnar arrays and hand each
//	         worker a disjoint sub-range to fill)
//	trailer  footerlen uint64 LE | magic "TFXI"     (fixed 12 bytes)
//
// The trailer is fixed-size so a reader finds the footer by reading the last
// 12 bytes and seeking back footerlen more. A v3 stream read front to back is
// a valid v2-style stream followed by the footer, so a decode whose footer
// fails validation still reads every thread.

const (
	indexMagic   = "TFXI"
	trailerSize  = 12 // uint64 footer length + 4-byte index magic
	minIndexSize = trailerSize + 3
)

// ErrNoIndex reports that a .tft input has no usable thread index: it is a
// v1/v2 file, or its footer is missing, truncated, or corrupt. Callers fall
// back to a batch decoder that reads the input whole — Decode, DecodeStrict,
// or DecodeStrictBytes; ReadFileParallel takes that fallback itself — which
// measures the thread sections from the stream and still fills them in
// parallel; an unreadable index never makes an otherwise-decodable trace
// unreadable.
var ErrNoIndex = errors.New("trace: no thread index")

// Header is the metadata section of a .tft file: everything before the
// per-thread event streams. Reader.Header returns it without decoding any
// thread data.
type Header struct {
	Version    int
	Program    string
	Entry      uint32
	Funcs      []FuncInfo
	NumThreads int
}

type indexEntry struct {
	tid      int
	off, len int64
	// Columnar table sizes of the section: record, memory-access, and
	// lock-op counts. They let a fill worker size its run's chunk of the
	// arena exactly before decoding a byte of it.
	nrec, nmem, nlock int64
}

// The fewest bytes the codec encodes a record, an access and a lock op in:
// a return record is its kind byte; an access is its instr, address delta,
// size and store bytes; a lock op its instr, address delta and release
// byte. A record decodes to 48 bytes (a Record and its control word), and
// an access or lock op to 16, so an index entry that fits its section (fits)
// sizes at most 48 bytes of tables per section byte.
const (
	minRecordBytes = 1
	minAccessBytes = 4
	minLockOpBytes = 3
)

// fits reports whether the entry's tables could be encoded in its section:
// nrec·minRecordBytes + nmem·minAccessBytes + nlock·minLockOpBytes ≤ len.
func (e indexEntry) fits() bool {
	room := e.len
	for _, c := range [...]struct{ n, size int64 }{
		{e.nrec, minRecordBytes}, {e.nmem, minAccessBytes}, {e.nlock, minLockOpBytes},
	} {
		if c.n < 0 || c.n > room/c.size {
			return false
		}
		room -= c.n * c.size
	}
	return true
}

// Reader provides random access to the thread sections of an indexed v3
// trace. Thread fills one section from its footer entry; Decode fills the
// whole trace from the footer, reading sections straight from the input, and
// hands a footer the stream contradicts to decode, the one code that handles
// it. Thread decodes are independent of each other, so a Reader is safe for
// concurrent use by multiple goroutines.
type Reader struct {
	ra     io.ReaderAt
	size   int64
	hdr    *Header
	index  []indexEntry
	closer io.Closer
}

// NewReader validates the index footer of a v3 trace held in ra. Any input
// without a usable index — a v1/v2 file, a truncated footer, sections that
// do not tile the data region, a header length that disagrees with the
// header — yields an error wrapping ErrNoIndex so callers can fall back to
// a batch decoder.
func NewReader(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < minIndexSize {
		return nil, fmt.Errorf("%w: %d-byte input is too short for a footer", ErrNoIndex, size)
	}
	var trailer [trailerSize]byte
	if _, err := ra.ReadAt(trailer[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("%w: reading trailer: %v", ErrNoIndex, err)
	}
	if string(trailer[8:]) != indexMagic {
		return nil, fmt.Errorf("%w: no trailer magic", ErrNoIndex)
	}
	footerLen := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerLen <= 0 || footerLen > size-trailerSize {
		return nil, fmt.Errorf("%w: implausible footer length %d in a %d-byte file", ErrNoIndex, footerLen, size)
	}
	footerOff := size - trailerSize - footerLen
	footer := make([]byte, footerLen)
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("%w: reading footer: %v", ErrNoIndex, err)
	}
	d := &bdec{data: footer}
	headerLen := int64(d.uvarint())
	n := d.count("thread", d.uvarint())
	if d.err != nil {
		return nil, fmt.Errorf("%w: decoding footer: %v", ErrNoIndex, d.err)
	}
	if headerLen <= 0 || headerLen > footerOff {
		return nil, fmt.Errorf("%w: implausible header length %d", ErrNoIndex, headerLen)
	}
	// The sections must tile the data region [headerLen, footerOff) in file
	// order: that is what makes the index describe exactly the stream a
	// front-to-back decode reads, section for section.
	end := headerLen
	index := make([]indexEntry, 0, preallocCap(n))
	for i := uint64(0); i < n && d.err == nil; i++ {
		e := indexEntry{
			tid:   int(d.uvarint()),
			off:   int64(d.uvarint()),
			len:   int64(d.uvarint()),
			nrec:  int64(d.count("record", d.uvarint())),
			nmem:  int64(d.uvarint()),
			nlock: int64(d.uvarint()),
		}
		if d.err != nil {
			break
		}
		if e.off != end || e.len < 0 || e.len > footerOff-e.off {
			return nil, fmt.Errorf("%w: thread %d section [%d,+%d) does not continue the data region [%d,%d) at %d",
				ErrNoIndex, e.tid, e.off, e.len, headerLen, footerOff, end)
		}
		end = e.off + e.len
		// The tables share the section's bytes, so counts that need more
		// bytes than the section holds cannot be honest. (The record count
		// additionally went through the shared maxCount cap above, matching
		// what the stream decoder enforces per thread.)
		if !e.fits() {
			return nil, fmt.Errorf("%w: thread %d section declares implausible table sizes %d/%d/%d for %d bytes",
				ErrNoIndex, e.tid, e.nrec, e.nmem, e.nlock, e.len)
		}
		index = append(index, e)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: decoding footer: %v", ErrNoIndex, d.err)
	}
	if end != footerOff {
		return nil, fmt.Errorf("%w: thread sections end at %d, footer starts at %d", ErrNoIndex, end, footerOff)
	}
	// The header must occupy exactly the headerLen bytes the footer claims.
	hb := make([]byte, headerLen)
	if _, err := ra.ReadAt(hb, 0); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrNoIndex, err)
	}
	hd := &bdec{data: hb}
	hdr := hd.header()
	if hd.err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrNoIndex, hd.err)
	}
	if hd.off != len(hb) {
		return nil, fmt.Errorf("%w: header is %d bytes, footer says %d", ErrNoIndex, hd.off, headerLen)
	}
	if hdr.Version != version3 {
		return nil, fmt.Errorf("%w: version %d file carries a footer", ErrNoIndex, hdr.Version)
	}
	if hdr.NumThreads != len(index) {
		return nil, fmt.Errorf("%w: header declares %d threads, index has %d", ErrNoIndex, hdr.NumThreads, len(index))
	}
	return &Reader{ra: ra, size: size, hdr: hdr, index: index}, nil
}

// OpenFile opens the named .tft file as an indexed Reader. The caller must
// Close it. A file without a usable index fails with ErrNoIndex.
//
// Every error return closes the file, through one deferred cleanup that
// covers any future early return too: servers open untrusted uploads, and a
// held handle would leak a descriptor per malformed input
// (TestOpenFileNoFDLeak pins it).
func OpenFile(path string) (r *Reader, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r, err = NewReader(f, st.Size())
	if err != nil {
		return nil, err
	}
	r.closer = f
	return r, nil
}

// Close releases the underlying file when the Reader owns one (OpenFile).
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

// Header returns the trace's metadata section.
func (r *Reader) Header() *Header { return r.hdr }

// NumThreads returns the number of thread sections in the index.
func (r *Reader) NumThreads() int { return len(r.index) }

// Thread decodes thread section i into tables of its own through
// fillSection: one exact read of the section bytes, then tables sized from
// its footer entry. The footer is trusted only as far as the stream bears
// it out: a section that contradicts its entry (its tid, its counts or its
// bounds) is an error, never a wrong thread. Sections tile the data region,
// so a misplaced entry always follows one that contradicts the stream:
// taken in index order, every section up to the first error is the one
// Decode returns. Sections decode independently (address deltas reset per
// thread), so concurrent calls are safe. A caller that must read a trace
// whatever its footer says calls Decode, as Session.Ingest does.
func (r *Reader) Thread(i int) (*ThreadTrace, error) {
	if i < 0 || i >= len(r.index) {
		return nil, fmt.Errorf("trace: thread section %d out of range [0,%d)", i, len(r.index))
	}
	en := r.index[i]
	if err := en.checkWidths(); err != nil {
		return nil, err
	}
	data := make([]byte, en.len)
	if _, err := r.ra.ReadAt(data, en.off); err != nil {
		return nil, fmt.Errorf("trace: thread section %d (tid %d): %w", i, en.tid, err)
	}
	th := &ThreadTrace{TID: en.tid, Records: make([]Record, en.nrec), Ctl: make([]uint64, en.nrec)}
	if en.nmem > 0 {
		th.Mem = make([]MemAccess, en.nmem)
	}
	if en.nlock > 0 {
		th.Locks = make([]LockOp, en.nlock)
	}
	if err := fillSection(data, en, false, i, th.Records, th.Ctl, th.Mem, th.Locks); err != nil {
		return nil, err
	}
	return th, nil
}

// Decode decodes the whole trace as DecodeStrict does, over up to
// parallelism workers, without copying the input whole: fill reads the
// thread sections the validated footer locates straight from the Reader's
// input. On any failure — a read error, or a stream that contradicts the
// footer — it falls back to DecodeStrict over the input, so decode stays the
// one code that handles a lying footer (by measuring the sections from the
// stream), and the result or the error is byte for byte DecodeStrict's.
func (r *Reader) Decode(parallelism int) (*Trace, error) {
	if a, err := r.fill(parallelism); err == nil {
		return a.Trace(r.hdr.Program, r.hdr.Entry, r.hdr.Funcs), nil
	}
	return DecodeStrict(r.ra, r.size, parallelism)
}

// fill decodes the whole trace from the footer's index into a new arena
// (the package's fill), reading each run of sections straight from the Reader's input
// with one ReadAt, so the input is never copied whole.
func (r *Reader) fill(parallelism int) (*Arena, error) {
	return fill(nil, r.ra, r.index, false, parallelism)
}

// ReadFileParallel decodes the named .tft file like Decode, filling its
// thread sections over up to parallelism workers (0 = one per core, 1 =
// serial). A v3 file whose footer validates is decoded as Reader.Decode
// decodes it, its sections read straight from the file; any other file — a
// v1/v2 stream (ErrNoIndex), a damaged footer, or one the stream
// contradicts — is read whole and decoded by decode, which measures the
// sections from the stream. The result is identical at every parallelism.
func ReadFileParallel(path string, parallelism int) (*Trace, error) {
	if r, err := OpenFile(path); err == nil {
		a, err := r.fill(parallelism)
		r.Close()
		if err == nil {
			return a.Trace(r.hdr.Program, r.hdr.Entry, r.hdr.Funcs), nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data, parallelism, false)
}
