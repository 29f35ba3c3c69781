package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// File format (".tft", ThreadFuser trace):
//
//	magic "TFTR" | version uvarint | program string | entry uvarint
//	nfuncs uvarint { name string, nblocks uvarint { ninstr uvarint } }
//	nthreads uvarint { tid uvarint, nrecords uvarint { record } }
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
// Strings are uvarint length + bytes. All integers are unsigned varints;
// addresses are stored raw (they are large but compress well as deltas are
// not needed for the reduced-scale workloads this reproduction runs).

const (
	magic   = "TFTR"
	version = 1
)

// Encode writes the trace to w in the .tft binary format.
func Encode(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	e := &encoder{w: bw}
	e.bytes([]byte(magic))
	e.uvarint(version)
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
	for _, th := range t.Threads {
		e.uvarint(uint64(th.TID))
		e.uvarint(uint64(len(th.Records)))
		for i := range th.Records {
			e.record(&th.Records[i])
		}
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// WriteFile encodes the trace to the named file.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	n   int64 // bytes written so far (byte offsets for the v3 index)
	err error
}

func (e *encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
		e.n += int64(len(b))
	}
}

func (e *encoder) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
		e.n++
	}
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.bytes(e.buf[:n])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}

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
			e.uvarint(m.Addr)
			e.byte(m.Size)
			e.bool(m.Store)
		}
		e.uvarint(uint64(len(r.Locks)))
		for _, l := range r.Locks {
			e.uvarint(uint64(l.Instr))
			e.uvarint(l.Addr)
			e.bool(l.Release)
		}
	case KindCall:
		e.uvarint(uint64(r.Callee))
	case KindRet:
	case KindSkip:
		e.byte(byte(r.SkipKind))
		e.uvarint(r.N)
	default:
		if e.err == nil {
			e.err = fmt.Errorf("trace: encode: unknown record kind %d", r.Kind)
		}
	}
}

func (e *encoder) bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// Decode reads a trace in the .tft binary format. All format versions are
// accepted transparently: v1 (raw addresses), v2 (delta-encoded addresses),
// and v3 (delta-encoded with an index footer, which a pure stream decode
// simply never reads). The input is slurped and decoded serially in memory
// by the columnar arena decoder (see arena.go); a decoded trace occupies
// several times its encoding anyway, so the extra resident bytes are bounded
// while the byte-slice hot path runs several times faster than stream
// decoding.
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

// decodeStream is the legacy record-at-a-time streaming decoder. It is kept
// as the reference implementation the arena decoder is differentially tested
// against: both must accept and reject exactly the same inputs and produce
// deeply-equal traces.
func decodeStream(r io.Reader) (*Trace, error) {
	d := &decoder{r: bufio.NewReaderSize(r, 1<<16)}
	h := d.header()
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode: %w", d.err)
	}
	t := &Trace{Program: h.Program, Entry: h.Entry, Funcs: h.Funcs}
	for i := 0; i < h.NumThreads && d.err == nil; i++ {
		t.Threads = append(t.Threads, d.thread(h.Version))
	}
	if d.err != nil {
		return nil, fmt.Errorf("trace: decode: %w", d.err)
	}
	return t, nil
}

// header decodes the version-independent header section: magic, version,
// program name, entry function, the function table, and the thread count.
func (d *decoder) header() *Header {
	var m [4]byte
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, m[:])
	}
	if d.err != nil {
		return nil
	}
	if string(m[:]) != magic {
		d.err = fmt.Errorf("bad magic %q", m[:])
		return nil
	}
	v := d.uvarint()
	if d.err == nil && v != version && v != version2 && v != version3 {
		d.err = fmt.Errorf("unsupported version %d", v)
		return nil
	}
	h := &Header{Version: int(v), Program: d.str()}
	h.Entry = uint32(d.uvarint())
	nf := d.count("function", d.uvarint())
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

// thread decodes one thread section. Counts are attacker-controlled like any
// other declared count, so the record count goes through the same cap the
// function/block/access counts use. Address deltas reset at the start of each
// thread in every versioned encoding, so sections decode independently.
func (d *decoder) thread(version int) *ThreadTrace {
	th := &ThreadTrace{TID: int(d.uvarint())}
	nr := d.count("record", d.uvarint())
	th.Records = make([]Record, 0, preallocCap(nr))
	var prevAddr uint64
	for j := uint64(0); j < nr && d.err == nil; j++ {
		if version >= version2 {
			var r Record
			r, prevAddr = d.record2(prevAddr)
			th.Records = append(th.Records, r)
		} else {
			th.Records = append(th.Records, d.record())
		}
	}
	return th
}

// byteReader is what the stream decoder needs from its input: bulk reads for
// strings plus single-byte reads for varints; bufio.Reader satisfies it.
type byteReader interface {
	io.Reader
	io.ByteReader
}

type decoder struct {
	r   byteReader
	err error
}

// maxCount bounds the element counts a .tft stream may declare. Counts are
// attacker-controlled on untrusted input (the fuzz target feeds arbitrary
// bytes), so the decoder both rejects absurd declarations and caps slice
// preallocation, growing by append so memory tracks bytes actually read.
const maxCount = 1 << 20

// count passes n through, recording an error if it exceeds maxCount.
func (d *decoder) count(what string, n uint64) uint64 {
	if d.err == nil && n > maxCount {
		d.err = fmt.Errorf("implausible %s count %d", what, n)
	}
	return n
}

// preallocCap clamps a declared count to a safe initial slice capacity.
func preallocCap(n uint64) int {
	const lim = 1 << 12
	if n > lim {
		return lim
	}
	return int(n)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = err
	}
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
	}
	return b
}

func (d *decoder) bool() bool { return d.byte() != 0 }

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = err
		return ""
	}
	return string(b)
}

func (d *decoder) record() Record {
	r := Record{Kind: Kind(d.byte())}
	switch r.Kind {
	case KindBBL:
		r.Func = uint32(d.uvarint())
		r.Block = uint32(d.uvarint())
		r.N = d.uvarint()
		nm := d.count("mem access", d.uvarint())
		if nm > 0 && d.err == nil {
			r.Mem = make([]MemAccess, 0, preallocCap(nm))
			for i := uint64(0); i < nm && d.err == nil; i++ {
				r.Mem = append(r.Mem, MemAccess{
					Instr: uint16(d.uvarint()),
					Addr:  d.uvarint(),
					Size:  d.byte(),
					Store: d.bool(),
				})
			}
		}
		nl := d.count("lock op", d.uvarint())
		if nl > 0 && d.err == nil {
			r.Locks = make([]LockOp, 0, preallocCap(nl))
			for i := uint64(0); i < nl && d.err == nil; i++ {
				r.Locks = append(r.Locks, LockOp{
					Instr:   uint16(d.uvarint()),
					Addr:    d.uvarint(),
					Release: d.bool(),
				})
			}
		}
	case KindCall:
		r.Callee = uint32(d.uvarint())
	case KindRet:
	case KindSkip:
		r.SkipKind = SkipKind(d.byte())
		r.N = d.uvarint()
	default:
		if d.err == nil {
			d.err = fmt.Errorf("unknown record kind %d", r.Kind)
		}
	}
	return r
}
