package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"threadfuser/internal/pool"
)

// This file implements the columnar trace arena: the decoded form of a trace
// as four flat tables — records, memory accesses, lock operations, and the
// records' control words — plus a per-thread span header, instead of per-thread record slices with
// per-record access slices. The arena is what makes decode run at memory
// bandwidth: near-zero per-record allocation, tables filled section by
// section by one byte-slice routine (fillSection) with no reader interface
// calls on the hot path, and no serial stage ahead of the parallel workers.
//
// The arena is allocated in chunks. Every whole-trace decode groups the
// thread sections of an index into runs of consecutive sections
// (sectionRuns), and each run is one chunk with tables of its own, sized
// exactly from the run's index entries. The pool worker that claims a run
// allocates its chunk's four tables and fills them at once, so the zeroing
// of fresh memory runs on every worker, and fillSection writes to memory
// that is still in cache. decode, over input in memory, takes the index
// from the v3 footer when that validates, and otherwise from a measuring
// walk over the stream; Reader.fill takes it from the footer and reads each
// run from the Reader's input, handing any failure back to decode.
//
// The decoded trace is a view of the arena: every ThreadTrace.Records and
// Ctl is a sub-slice of its chunk's record and control-word tables, and its
// Mem and Locks tables are sub-slices of the chunk's access and lock tables.
// Each record holds its thread-relative running offsets into them
// (Record.MemLo, LockLo), and its range ends where the next record's begins,
// so a record is 32 bytes with no pointers: two share a cache line, and the
// record table, the largest allocation of a decode, is never scanned by the
// garbage collector. The tables have the layout every in-memory builder gives them
// (ThreadTrace.CheckLayout), so an arena-backed trace and one built record by
// record are reflect.DeepEqual exactly when they hold the same events, which
// is what the differential tests against the reference stream decoder (a
// test file's decodeStream) assert.

// Arena is the columnar backing store of a decoded trace, one Chunk per run
// of consecutive thread sections. Spans maps each thread, in file order, to
// its ranges of its chunk's tables.
type Arena struct {
	Spans  []Span
	Chunks []Chunk
}

// Chunk holds the tables of the thread sections [Lo,Hi) of the arena's
// Spans: their records contiguously in Records, in section order, with
// their control words at the same indices of Ctl, their memory accesses in
// Mem, and their lock operations in Locks, each in record order. The
// sections' spans tile the tables.
type Chunk struct {
	Lo, Hi  int
	Records []Record
	Ctl     []uint64
	Mem     []MemAccess
	Locks   []LockOp
}

// Span locates one thread's entries inside its chunk's tables.
type Span struct {
	TID            int
	Lo, Hi         int // record and control-word index range [Lo,Hi)
	MemLo, MemHi   int // access index range
	LockLo, LockHi int // lock op index range
}

// Trace materializes the view adapter: a Trace whose threads' tables alias
// their chunks', each ending at its capacity, so an append to one copies
// instead of overwriting the next thread's. The arena must not be mutated
// afterwards.
func (a *Arena) Trace(program string, entry uint32, funcs []FuncInfo) *Trace {
	t := &Trace{Program: program, Entry: entry, Funcs: funcs}
	if len(a.Spans) == 0 {
		return t
	}
	// One block allocation for all ThreadTrace headers.
	block := make([]ThreadTrace, len(a.Spans))
	t.Threads = make([]*ThreadTrace, len(a.Spans))
	for _, c := range a.Chunks {
		for i := c.Lo; i < c.Hi; i++ {
			sp := a.Spans[i]
			th := &block[i]
			th.TID, th.Records, th.Ctl = sp.TID, c.Records[sp.Lo:sp.Hi:sp.Hi], c.Ctl[sp.Lo:sp.Hi:sp.Hi]
			if sp.MemHi > sp.MemLo {
				th.Mem = c.Mem[sp.MemLo:sp.MemHi:sp.MemHi]
			}
			if sp.LockHi > sp.LockLo {
				th.Locks = c.Locks[sp.LockLo:sp.LockHi:sp.LockHi]
			}
			t.Threads[i] = th
		}
	}
	return t
}

// bdec decodes .tft structures from an in-memory byte slice; it is the only
// production parser of .tft bytes. It makes no reader interface calls: the
// single-byte varint fast path is a bounds check and an increment.
type bdec struct {
	data []byte
	off  int
	err  error
}

func (d *bdec) uvarint() uint64 {
	if off := d.off; off < len(d.data) {
		if b := d.data[off]; b < 0x80 {
			d.off = off + 1
			return uint64(b)
		}
	}
	return d.uvarintSlow()
}

// uvarintSlow handles multi-byte varints (raw v1 addresses are routinely 5+
// bytes) with a manual loop: one pass, no interface or stdlib call overhead.
func (d *bdec) uvarintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	var s uint
	for i := d.off; i < len(d.data); i++ {
		b := d.data[i]
		if b < 0x80 {
			if s >= 63 && (s > 63 || b > 1) {
				d.err = fmt.Errorf("varint overflows uint64")
				return 0
			}
			d.off = i + 1
			return v | uint64(b)<<s
		}
		v |= uint64(b&0x7f) << s
		s += 7
		if s >= 70 {
			d.err = fmt.Errorf("varint overflows uint64")
			return 0
		}
	}
	d.err = io.ErrUnexpectedEOF
	return 0
}

func (d *bdec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxString {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	if uint64(len(d.data)-d.off) < n {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count rejects implausible declared element counts outright: they are
// attacker-controlled.
func (d *bdec) count(what string, n uint64) uint64 {
	if d.err == nil && n > maxCount {
		d.err = fmt.Errorf("implausible %s count %d", what, n)
	}
	return n
}

// header decodes the version-independent metadata section. The reference
// stream decoder mirrors it byte for byte (including prealloc clamps), so
// the two accept and reject exactly the same inputs.
func (d *bdec) header() *Header {
	if len(d.data)-d.off < len(magic) {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	m := d.data[d.off : d.off+len(magic)]
	d.off += len(magic)
	if string(m) != magic {
		d.err = fmt.Errorf("bad magic %q", m)
		return nil
	}
	v := d.uvarint()
	if d.err == nil && v != version1 && v != version2 && v != version3 {
		d.err = fmt.Errorf("unsupported version %d", v)
		return nil
	}
	h := &Header{Version: int(v), Program: d.str()}
	h.Entry = uint32(d.uvarint())
	nf := d.count("function", d.uvarint())
	if d.err != nil {
		return nil
	}
	h.Funcs = make([]FuncInfo, 0, preallocCap(nf))
	for i := uint64(0); i < nf && d.err == nil; i++ {
		fi := FuncInfo{Name: d.str()}
		nb := d.count("block", d.uvarint())
		fi.Blocks = make([]BlockInfo, 0, preallocCap(nb))
		for j := uint64(0); j < nb && d.err == nil; j++ {
			fi.Blocks = append(fi.Blocks, BlockInfo{NInstr: uint32(d.uvarint())})
		}
		h.Funcs = append(h.Funcs, fi)
	}
	h.NumThreads = int(d.count("thread", d.uvarint()))
	if d.err != nil {
		return nil
	}
	return h
}

// decode is the decoder of input in memory, behind Decode, DecodeStrict and
// the fallbacks of Reader.Decode and ReadFileParallel: it picks an index of
// the thread sections, then fills every section through fillSection, up to
// workers at a time. A v3 index footer that NewReader validates is used as
// is; anything else — a v1/v2 stream, a damaged footer, or a footer whose
// counts the stream contradicts — is decoded from a measured index, which
// trusts only the stream. The result is identical at every worker count.
//
// In strict mode the input must be fully accounted for: either the footer
// validates, or the bare stream ends exactly at the last byte — leftover
// bytes (a truncated footer or trailer) are an error instead of being
// silently ignored.
func decode(data []byte, workers int, strict bool) (*Trace, error) {
	r, rerr := NewReader(bytes.NewReader(data), int64(len(data)))
	if rerr == nil {
		if a, err := fill(data, nil, r.index, false, workers); err == nil {
			return a.Trace(r.hdr.Program, r.hdr.Entry, r.hdr.Funcs), nil
		}
	}
	d := &bdec{data: data}
	h := d.header()
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode: %w", d.err)
	}
	index, end, err := measureStream(data, d.off, h.NumThreads)
	if err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if strict && rerr != nil && end != len(data) {
		return nil, fmt.Errorf("trace: decode: %d trailing bytes after the last thread section (truncated or damaged index?)", len(data)-end)
	}
	a, err := fill(data, nil, index, h.Version == version1, workers)
	if err != nil {
		return nil, err
	}
	return a.Trace(h.Program, h.Entry, h.Funcs), nil
}

// DecodeStrict decodes an untrusted upload, refusing inputs the lenient
// readers would quietly truncate. A v3 container whose footer or trailer
// was cut off still decodes under Decode/ReadFileParallel — every record
// precedes the index, so the lenient path sees a complete stream and
// ignores the damaged tail. For ingestion that leniency masks data loss:
// the uploader meant to send an index, so unaccounted-for trailing bytes
// mean the transfer was damaged. Inputs with a valid index decode at the
// given parallelism; bare v1/v2 streams must end exactly at the last thread
// section.
func DecodeStrict(ra io.ReaderAt, size int64, parallelism int) (*Trace, error) {
	if size < 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("trace: decode: implausible input size %d", size)
	}
	data := make([]byte, size)
	if n, err := ra.ReadAt(data, 0); n < len(data) && err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return DecodeStrictBytes(data, parallelism)
}

// DecodeStrictBytes is DecodeStrict over input already in memory, decoded
// in place: the trace copies what it keeps, so data may be dropped or
// reused once it returns.
func DecodeStrictBytes(data []byte, parallelism int) (*Trace, error) {
	return decode(data, parallelism, true)
}

// runCap is the most bytes a fill takes in one run of sections, unless a
// single section is larger: a quarter megabyte keeps the Reader's per-worker
// buffers small while one read still covers hundreds of typical sections.
const runCap = 256 << 10

// sectionRuns groups the sections of index, which tile their data region,
// into runs of consecutive sections of at most runCap bytes — lowered to a
// pool.MinParallelItems-th of the region, so small traces still fan out —
// and a section larger than that limit is a run of its own. runs[j] is the
// first section of run j, and the last element is len(index); limit is the
// run size in bytes the grouping aimed at.
func sectionRuns(index []indexEntry) (runs []int, limit int64) {
	n := len(index)
	if n == 0 {
		return []int{0}, 0
	}
	lo, hi := index[0].off, index[n-1].off+index[n-1].len
	limit = min(runCap, (hi-lo+pool.MinParallelItems-1)/pool.MinParallelItems)
	runs = []int{0}
	for i, start := 1, lo; i < n; i++ {
		if en := index[i]; en.off+en.len-start > limit {
			runs = append(runs, i)
			start = en.off
		}
	}
	return append(runs, n), limit
}

// fill is the one arena fill: it decodes every section that index locates
// into a new arena, one chunk per run of sections. It refuses an entry
// whose counts overflow a record's offsets (checkWidths) before any table
// is sized, then groups the sections into runs (sectionRuns). Up to
// pool.Workers(workers, runs) workers claim runs in order. The worker that
// claims a run takes the run's bytes — a sub-slice of data, or, when ra is
// not nil, one ReadAt from ra into a buffer of its own, sized for a run at
// the limit and grown only for a larger section — then allocates the run's
// chunk tables at their exact sizes and fills the run's sections into them
// in order. So no table is allocated or zeroed ahead of the workers, the
// input is never copied whole, and the first failing section in index
// order supplies the error.
func fill(data []byte, ra io.ReaderAt, index []indexEntry, raw bool, workers int) (*Arena, error) {
	for _, en := range index {
		if err := en.checkWidths(); err != nil {
			return nil, err
		}
	}
	runs, limit := sectionRuns(index)
	a := &Arena{Spans: make([]Span, len(index)), Chunks: make([]Chunk, len(runs)-1)}
	workers = pool.Workers(workers, len(a.Chunks))
	bufs := make([][]byte, workers)
	_, err := pool.ForEach(workers, len(a.Chunks), func(k, j int) error {
		c := &a.Chunks[j]
		c.Lo, c.Hi = runs[j], runs[j+1]
		first, last := index[c.Lo], index[c.Hi-1]
		// sec holds the run's bytes; base is the input offset of sec[0].
		sec, base := data, int64(0)
		if ra != nil {
			size := last.off + last.len - first.off
			if int64(cap(bufs[k])) < size {
				bufs[k] = make([]byte, max(size, limit))
			}
			sec, base = bufs[k][:size], first.off
			if m, err := ra.ReadAt(sec, base); m < len(sec) {
				return fmt.Errorf("trace: thread section %d (tid %d): %w", c.Lo, first.tid, err)
			}
		}
		var nrec, nmem, nlock int
		for i := c.Lo; i < c.Hi; i++ {
			en := index[i]
			a.Spans[i] = Span{
				TID: en.tid,
				Lo:  nrec, Hi: nrec + int(en.nrec),
				MemLo: nmem, MemHi: nmem + int(en.nmem),
				LockLo: nlock, LockHi: nlock + int(en.nlock),
			}
			nrec, nmem, nlock = a.Spans[i].Hi, a.Spans[i].MemHi, a.Spans[i].LockHi
		}
		c.Records, c.Ctl = make([]Record, nrec), make([]uint64, nrec)
		c.Mem, c.Locks = make([]MemAccess, nmem), make([]LockOp, nlock)
		for i := c.Lo; i < c.Hi; i++ {
			en, sp := index[i], a.Spans[i]
			if err := fillSection(sec[en.off-base:en.off-base+en.len], en, raw, i,
				c.Records[sp.Lo:sp.Hi], c.Ctl[sp.Lo:sp.Hi], c.Mem[sp.MemLo:sp.MemHi], c.Locks[sp.LockLo:sp.LockHi]); err != nil {
				return err
			}
		}
		return nil
	})
	return a, err
}

// checkWidths refuses a section whose access or lock op count does not fit
// the uint32 thread-relative running offsets of Record, before any table is
// sized from it.
func (en indexEntry) checkWidths() error {
	if en.nmem > math.MaxUint32 || en.nlock > math.MaxUint32 {
		return fmt.Errorf("trace: thread section (tid %d) declares %d accesses and %d lock ops; a thread holds at most %d of each",
			en.tid, en.nmem, en.nlock, uint64(math.MaxUint32))
	}
	return nil
}

// measureStream builds the index of nthreads thread sections starting at
// off by walking them with measureSection, and returns it with the offset
// just past the last section. An error names the section it is in, as
// fillSection's do.
func measureStream(data []byte, off, nthreads int) ([]indexEntry, int, error) {
	index := make([]indexEntry, 0, preallocCap(uint64(nthreads)))
	for t := 0; t < nthreads; t++ {
		en, _, err := measureSection(data, off)
		if err != nil {
			return nil, 0, fmt.Errorf("thread section %d: %w", t, err)
		}
		index = append(index, en)
		off += int(en.len)
	}
	return index, off, nil
}

// measureSection walks the thread section at off without decoding values
// and returns its index entry: tid, byte range, and exact table sizes. It
// rejects what the reference stream decoder rejects — truncation, implausible
// counts, unknown record kinds — except overflowing varints, which the fill
// over the measured entry rejects. Every counted entry has consumed input
// bytes, so hostile counts cannot inflate the allocation sized from it. The
// walk is version-independent: v1 and v2 records have identical field
// structure (only the address encoding differs, invisible to a skip).
//
// canonical reports that the section holds none of the three forms the
// decoder accepts but the encoder never writes: an overlong varint, a Store
// or Release byte other than 0 or 1, and a value the decoder narrows (an
// access or lock instr over 0xFFFF; a func, block or callee over
// 0xFFFFFFFF). A canonical v2 section is byte for byte what the encoder
// writes for the thread it decodes to, and a canonical v1 section differs
// from it only in its addresses; CanonicalKey relies on that.
//
// The walk keeps its cursor in a local: a truncated skipped varint moves it
// past len(data), which every later read treats as the end of the input.
func measureSection(data []byte, off int) (en indexEntry, canonical bool, err error) {
	tid, p, err := measureCount(data, off)
	if err != nil {
		return indexEntry{}, false, err
	}
	canonical = !overlong(data, off, p)
	nr, np, err := measureCount(data, p)
	if err != nil {
		return indexEntry{}, false, err
	}
	if nr > maxCount {
		return indexEntry{}, false, fmt.Errorf("implausible record count %d", nr)
	}
	canonical = canonical && !overlong(data, p, np)
	p = np
	en = indexEntry{tid: int(tid), off: int64(off), nrec: int64(nr)}
	for j := uint64(0); j < nr; j++ {
		if p >= len(data) {
			return indexEntry{}, false, io.ErrUnexpectedEOF
		}
		kind := Kind(data[p])
		p++
		switch kind {
		case KindBBL:
			// Fused header skip, as in fillSection: func, block, n and the
			// access count are almost always one byte each (and a one-byte
			// varint is canonical at any width), so one 32-bit load and a
			// continuation-bit test replace four varint reads.
			var nm uint64
			if p+4 <= len(data) && binary.LittleEndian.Uint32(data[p:])&0x80808080 == 0 {
				nm = uint64(data[p+3])
				p += 4
			} else {
				var fn, blk, n bool
				p, fn = skipVarint(data, p, 32)
				p, blk = skipVarint(data, p, 32)
				p, n = skipVarint(data, p, 64)
				var np int
				if nm, np, err = measureCount(data, p); err != nil {
					return indexEntry{}, false, err
				}
				if nm > maxCount {
					return indexEntry{}, false, fmt.Errorf("implausible mem access count %d", nm)
				}
				canonical = canonical && fn && blk && n && !overlong(data, p, np)
				p = np
			}
			for i := uint64(0); i < nm; i++ {
				var instr, addr bool
				p, instr = skipVarint(data, p, 16)
				// Address deltas are the one routinely multi-byte varint:
				// up to eight bytes, one 64-bit load finds the terminator,
				// as in fillSection (eight bytes carry at most 56 bits).
				if p+8 <= len(data) {
					if stop := ^binary.LittleEndian.Uint64(data[p:]) & 0x8080808080808080; stop != 0 {
						n := bits.TrailingZeros64(stop) >> 3 // terminator byte index
						addr = n == 0 || data[p+n] != 0
						p += n + 1
					} else {
						p, addr = skipVarint(data, p, 64)
					}
				} else {
					p, addr = skipVarint(data, p, 64)
				}
				if p+2 > len(data) {
					return indexEntry{}, false, io.ErrUnexpectedEOF
				}
				canonical = canonical && instr && addr && data[p+1] <= 1 // size, store
				p += 2
			}
			var nl uint64
			if p < len(data) && data[p] < 0x80 { // one byte, as almost always
				nl = uint64(data[p])
				p++
			} else {
				var np int
				if nl, np, err = measureCount(data, p); err != nil {
					return indexEntry{}, false, err
				}
				if nl > maxCount {
					return indexEntry{}, false, fmt.Errorf("implausible lock op count %d", nl)
				}
				canonical = canonical && !overlong(data, p, np)
				p = np
			}
			for i := uint64(0); i < nl; i++ {
				var instr, addr bool
				p, instr = skipVarint(data, p, 16)
				p, addr = skipVarint(data, p, 64)
				if p >= len(data) {
					return indexEntry{}, false, io.ErrUnexpectedEOF
				}
				canonical = canonical && instr && addr && data[p] <= 1 // release
				p++
			}
			en.nmem += int64(nm)
			en.nlock += int64(nl)
		case KindCall:
			var callee bool
			p, callee = skipVarint(data, p, 32)
			canonical = canonical && callee
		case KindRet:
		case KindSkip:
			if p >= len(data) {
				return indexEntry{}, false, io.ErrUnexpectedEOF
			}
			var n bool
			p, n = skipVarint(data, p+1, 64) // past the skip kind
			canonical = canonical && n
		default:
			return indexEntry{}, false, fmt.Errorf("unknown record kind %d", kind)
		}
	}
	if p > len(data) {
		return indexEntry{}, false, io.ErrUnexpectedEOF
	}
	en.len = int64(p - off)
	return en, canonical, nil
}

// skipVarint returns the offset just past the varint at p, without
// decoding it, and whether it is the shortest encoding of a value of at
// most width bits. If data ends inside the varint it returns len(data)+1.
func skipVarint(data []byte, p, width int) (int, bool) {
	if p < len(data) && data[p] < 0x80 {
		return p + 1, true
	}
	return skipVarintSlow(data, p, width)
}

// skipVarintSlow is skipVarint past a multi-byte varint. An overlong
// varint ends in a zero byte; a value wider than its field is one the
// decoder narrows (uint16, uint32); one wider than 64 bits overflows, and
// fillSection rejects it.
func skipVarintSlow(data []byte, p, width int) (int, bool) {
	for i := p; i < len(data); i++ {
		if b := data[i]; b < 0x80 {
			return i + 1, b != 0 && 7*(i-p)+bits.Len8(b) <= width
		}
	}
	return len(data) + 1, true
}

// measureCount decodes the tid or count varint at p like bdec.uvarint,
// with its errors, and returns the offset just past it.
func measureCount(data []byte, p int) (uint64, int, error) {
	d := bdec{data: data, off: p}
	v := d.uvarint()
	return v, d.off, d.err
}

// overlong reports whether the varint in data[p:next] is longer than the
// shortest encoding of its value, which ends in a nonzero byte.
func overlong(data []byte, p, next int) bool {
	return next-p > 1 && data[next-1] == 0
}

// appendDeltaSection appends the v1 thread section sec, which
// measureSection walked whole and found canonical, as the v2 section the
// encoder writes for the same thread: runs of bytes are copied as they
// are, and each access and lock address is rewritten from raw to the
// zig-zag varint of its delta (appendDelta). The verdict is what makes the
// copied fields the encoder's own bytes and every address fit in 64 bits;
// the header and address skips use the word loads measureSection does.
func appendDeltaSection(b, sec []byte, naddr int64) []byte {
	// A delta is at most 9 bytes longer than the raw address it replaces
	// (one byte against ten), and appendRun stores whole words.
	b = slices.Grow(b, len(sec)+9*int(naddr)+8)
	p, _ := skipVarint(sec, 0, 64) // tid
	nr, p, _ := uvarintAt(sec, p)
	var prev uint64
	run := 0 // start of the bytes not yet copied
	for j := uint64(0); j < nr; j++ {
		kind := Kind(sec[p])
		p++
		switch kind {
		case KindBBL:
			var nm uint64
			if p+4 <= len(sec) && binary.LittleEndian.Uint32(sec[p:])&0x80808080 == 0 {
				nm = uint64(sec[p+3])
				p += 4
			} else {
				p, _ = skipVarint(sec, p, 32)
				p, _ = skipVarint(sec, p, 32)
				p, _ = skipVarint(sec, p, 64)
				nm, p, _ = uvarintAt(sec, p)
			}
			for i := uint64(0); i < nm; i++ {
				p, _ = skipVarint(sec, p, 16) // instr
				b = appendRun(b, sec, run, p)
				// Raw addresses are routinely five bytes: the 64-bit-load
				// cascade of uvarintAt, written out as in fillSection.
				var addr uint64
				if p+8 <= len(sec) {
					x := binary.LittleEndian.Uint64(sec[p:])
					if stop := ^x & 0x8080808080808080; stop != 0 {
						nb := bits.TrailingZeros64(stop) >> 3
						x &= ^uint64(0) >> (56 - 8*uint(nb))
						addr = x&0x7f |
							x>>1&(0x7f<<7) |
							x>>2&(0x7f<<14) |
							x>>3&(0x7f<<21) |
							x>>4&(0x7f<<28) |
							x>>5&(0x7f<<35) |
							x>>6&(0x7f<<42) |
							x>>7&(0x7f<<49)
						p += nb + 1
					} else {
						addr, p, _ = uvarintAt(sec, p)
					}
				} else {
					addr, p, _ = uvarintAt(sec, p)
				}
				b = appendDelta(b, addr, &prev)
				run = p
				p += 2 // size, store
			}
			var nl uint64
			if sec[p] < 0x80 {
				nl = uint64(sec[p])
				p++
			} else {
				nl, p, _ = uvarintAt(sec, p)
			}
			for i := uint64(0); i < nl; i++ {
				p, _ = skipVarint(sec, p, 16) // instr
				b = appendRun(b, sec, run, p)
				var addr uint64
				addr, p, _ = uvarintAt(sec, p)
				b = appendDelta(b, addr, &prev)
				run = p
				p++ // release
			}
		case KindCall:
			p, _ = skipVarint(sec, p, 32)
		case KindRet:
		case KindSkip:
			p, _ = skipVarint(sec, p+1, 64) // past the skip kind
		}
	}
	return append(b, sec[run:]...)
}

// appendRun appends sec[run:p] to b. The runs between addresses are a few
// bytes long, so one with eight bytes of sec behind it is stored as a whole
// word, into the spare capacity appendDeltaSection reserved, instead of
// through a copy call.
func appendRun(b, sec []byte, run, p int) []byte {
	if w := len(b); p-run <= 8 && run+8 <= len(sec) {
		binary.LittleEndian.PutUint64(b[w:w+8], binary.LittleEndian.Uint64(sec[run:]))
		return b[:w+p-run]
	}
	return append(b, sec[run:p]...)
}

// uvarint2 is the manually inlined varint fast path for the section fill
// loop: one- and two-byte varints (the overwhelming majority — record fields,
// counts, instruction offsets, and small address deltas) decode with two
// bounds checks and no call. (*bdec).uvarint cannot serve here: its slow-path
// call pushes it past the inliner budget, and this loop reads on the order of
// ten varints per record. Returns ok=false without consuming anything when
// the varint is longer than two bytes or the buffer is nearly exhausted;
// uvarintAt finishes those.
func uvarint2(data []byte, off int) (uint64, int, bool) {
	if off+1 < len(data) {
		b0 := data[off]
		if b0 < 0x80 {
			return uint64(b0), off + 1, true
		}
		if b1 := data[off+1]; b1 < 0x80 {
			return uint64(b0&0x7f) | uint64(b1)<<7, off + 2, true
		}
	}
	return 0, off, false
}

// uvarintAt is the arbitrary-length companion to uvarint2. Varints of up to
// eight bytes decode branch-lean from one 64-bit load: the terminator byte
// is found with a trailing-zeros count over the inverted continuation bits,
// and the 7-bit groups are compacted with a fixed shift cascade (an 8-byte
// varint carries at most 56 bits, so the fast path cannot overflow uint64).
// Longer varints and varints within eight bytes of the buffer end take the
// byte loop, which mirrors uvarintSlow's overflow limits. ok=false means
// truncated or overflowing.
func uvarintAt(data []byte, off int) (uint64, int, bool) {
	if off+8 <= len(data) {
		x := binary.LittleEndian.Uint64(data[off:])
		if stop := ^x & 0x8080808080808080; stop != 0 {
			n := bits.TrailingZeros64(stop) >> 3 // terminator byte index
			x &= ^uint64(0) >> (56 - 8*uint(n))
			v := x&0x7f |
				x>>1&(0x7f<<7) |
				x>>2&(0x7f<<14) |
				x>>3&(0x7f<<21) |
				x>>4&(0x7f<<28) |
				x>>5&(0x7f<<35) |
				x>>6&(0x7f<<42) |
				x>>7&(0x7f<<49)
			return v, off + n + 1, true
		}
	}
	var v uint64
	var s uint
	for i := off; i < len(data); i++ {
		b := data[i]
		if b < 0x80 {
			if s >= 63 && (s > 63 || b > 1) {
				return 0, off, false
			}
			return v | uint64(b)<<s, i + 1, true
		}
		v |= uint64(b&0x7f) << s
		s += 7
		if s >= 70 {
			return 0, off, false
		}
	}
	return 0, off, false
}

// fillSection decodes one thread section into the section's own tables:
// recs, mem and locks are exactly the section's records, accesses and lock
// ops as the index sizes them, and each record receives its running
// offsets into mem and locks; ctl, as long as recs, receives each record's
// control word as the record is decoded. It is the only routine that decodes record
// fields from section bytes. Every caller owns disjoint tables (in fill,
// sub-ranges of a chunk's; the index's per-section table sizes are the
// partition), so section fills allocate nothing and may run in parallel. raw selects the v1
// address encoding (raw addresses instead of zig-zag deltas, the one field
// that differs between versions). Any disagreement between the stream and
// the index is an error; decode then falls back to a measured index, which
// trusts only the stream.
//
// This is the decode hot loop: records are written field by field through a
// pointer into the record table (no build-then-copy), fields that stay zero
// are never stored (the tables are freshly allocated), and varints go
// through the inlined uvarint2 fast path. The section is fully validated
// against the index before returning: tid, record/access/lock counts and
// the section byte length must all match exactly.
func fillSection(data []byte, en indexEntry, raw bool, span int, recs []Record, ctl []uint64, mem []MemAccess, locks []LockOp) error {
	d := &bdec{data: data}
	tid := int(d.uvarint())
	nr := d.uvarint()
	if d.err != nil {
		return fmt.Errorf("trace: thread section %d (tid %d): %w", span, en.tid, d.err)
	}
	if tid != en.tid || nr != uint64(en.nrec) {
		return fmt.Errorf("trace: thread section %d: stream declares tid %d with %d records, index says tid %d with %d",
			span, tid, nr, en.tid, en.nrec)
	}
	var mi, li int
	memEnd, lockEnd := len(mem), len(locks)
	off := d.off
	var prevAddr uint64
	var ok bool
	ctl = ctl[:len(recs)]
	for ri := range recs {
		if off >= len(data) {
			return fmt.Errorf("trace: thread section %d (tid %d): %w", span, en.tid, io.ErrUnexpectedEOF)
		}
		kind := Kind(data[off])
		off++
		r := &recs[ri]
		r.Kind, r.MemLo, r.LockLo = kind, uint32(mi), uint32(li)
		m0, l0 := mi, li
		switch kind {
		case KindBBL:
			// Fused header read: func/block/n/nmem are almost always one
			// byte each, so one 32-bit load plus a continuation-bit test
			// replaces four varint reads.
			var fn, blk, n, cnt uint64
			fused := false
			if off+4 <= len(data) {
				if x := binary.LittleEndian.Uint32(data[off:]); x&0x80808080 == 0 {
					fn, blk, n, cnt = uint64(x&0xff), uint64(x>>8&0xff), uint64(x>>16&0xff), uint64(x>>24)
					off += 4
					fused = true
				}
			}
			if !fused {
				if fn, off, ok = uvarint2(data, off); !ok {
					if fn, off, ok = uvarintAt(data, off); !ok {
						return badVarint(span, en)
					}
				}
				if blk, off, ok = uvarint2(data, off); !ok {
					if blk, off, ok = uvarintAt(data, off); !ok {
						return badVarint(span, en)
					}
				}
				if n, off, ok = uvarint2(data, off); !ok {
					if n, off, ok = uvarintAt(data, off); !ok {
						return badVarint(span, en)
					}
				}
				if cnt, off, ok = uvarint2(data, off); !ok {
					if cnt, off, ok = uvarintAt(data, off); !ok {
						return badVarint(span, en)
					}
				}
			}
			r.Func, r.Block, r.N = uint32(fn), uint32(blk), n
			if cnt > maxCount || cnt > uint64(memEnd-mi) {
				return fmt.Errorf("trace: thread section %d: stream carries more accesses than the index declares", span)
			}
			for i := uint64(0); i < cnt; i++ {
				var instr uint64
				if instr, off, ok = uvarint2(data, off); !ok {
					if instr, off, ok = uvarintAt(data, off); !ok {
						return badVarint(span, en)
					}
				}
				// Address deltas are the one routinely multi-byte varint, so
				// the 64-bit-load cascade (see uvarintAt) is written out here
				// rather than called: this line runs once per access and the
				// call overhead alone was a measurable slice of decode time.
				var delta uint64
				if off+8 <= len(data) {
					x := binary.LittleEndian.Uint64(data[off:])
					if stop := ^x & 0x8080808080808080; stop != 0 {
						nb := bits.TrailingZeros64(stop) >> 3
						x &= ^uint64(0) >> (56 - 8*uint(nb))
						delta = x&0x7f |
							x>>1&(0x7f<<7) |
							x>>2&(0x7f<<14) |
							x>>3&(0x7f<<21) |
							x>>4&(0x7f<<28) |
							x>>5&(0x7f<<35) |
							x>>6&(0x7f<<42) |
							x>>7&(0x7f<<49)
						off += nb + 1
					} else if delta, off, ok = uvarintAt(data, off); !ok {
						return badVarint(span, en)
					}
				} else if delta, off, ok = uvarintAt(data, off); !ok {
					return badVarint(span, en)
				}
				if off+1 >= len(data) {
					return fmt.Errorf("trace: thread section %d (tid %d): %w", span, en.tid, io.ErrUnexpectedEOF)
				}
				addr := delta
				if !raw {
					addr = prevAddr + uint64(unzigzag(delta))
					prevAddr = addr
				}
				mem[mi] = MemAccess{Instr: uint16(instr), Addr: addr, Size: data[off], Store: data[off+1] != 0}
				off += 2
				mi++
			}
			if cnt, off, ok = uvarint2(data, off); !ok {
				if cnt, off, ok = uvarintAt(data, off); !ok {
					return badVarint(span, en)
				}
			}
			if cnt > maxCount || cnt > uint64(lockEnd-li) {
				return fmt.Errorf("trace: thread section %d: stream carries more lock ops than the index declares", span)
			}
			for i := uint64(0); i < cnt; i++ {
				var instr, delta uint64
				if instr, off, ok = uvarint2(data, off); !ok {
					if instr, off, ok = uvarintAt(data, off); !ok {
						return badVarint(span, en)
					}
				}
				if delta, off, ok = uvarint2(data, off); !ok {
					if delta, off, ok = uvarintAt(data, off); !ok {
						return badVarint(span, en)
					}
				}
				if off >= len(data) {
					return fmt.Errorf("trace: thread section %d (tid %d): %w", span, en.tid, io.ErrUnexpectedEOF)
				}
				addr := delta
				if !raw {
					addr = prevAddr + uint64(unzigzag(delta))
					prevAddr = addr
				}
				locks[li] = LockOp{Instr: uint16(instr), Addr: addr, Release: data[off] != 0}
				off++
				li++
			}
		case KindCall:
			var callee uint64
			if callee, off, ok = uvarint2(data, off); !ok {
				if callee, off, ok = uvarintAt(data, off); !ok {
					return badVarint(span, en)
				}
			}
			r.Callee = uint32(callee)
		case KindRet:
		case KindSkip:
			if off >= len(data) {
				return fmt.Errorf("trace: thread section %d (tid %d): %w", span, en.tid, io.ErrUnexpectedEOF)
			}
			r.SkipKind = SkipKind(data[off])
			off++
			if r.N, off, ok = uvarint2(data, off); !ok {
				if r.N, off, ok = uvarintAt(data, off); !ok {
					return badVarint(span, en)
				}
			}
		default:
			return fmt.Errorf("trace: thread section %d (tid %d): unknown record kind %d", span, en.tid, kind)
		}
		ctl[ri] = ctlWord(r, mi-m0, li-l0)
	}
	if off != len(data) || mi != memEnd || li != lockEnd {
		return fmt.Errorf("trace: thread section %d (tid %d): stream and index disagree on section contents", span, en.tid)
	}
	return nil
}

// badVarint is fillSection's shared truncated/overflowing-varint error.
func badVarint(span int, en indexEntry) error {
	return fmt.Errorf("trace: thread section %d (tid %d): truncated or overflowing varint", span, en.tid)
}
