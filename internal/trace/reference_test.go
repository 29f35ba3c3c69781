package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// decodeStream is the legacy record-at-a-time streaming decoder. It lives in
// a test file as the reference implementation the arena decoder is
// differentially tested against: both must accept and reject exactly the
// same inputs and produce deeply-equal traces.
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
	if d.err == nil && v != version1 && v != version2 && v != version3 {
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
	th.Ctl = make([]uint64, 0, preallocCap(nr))
	var prevAddr uint64
	for j := uint64(0); j < nr && d.err == nil; j++ {
		var r Record
		var mem []MemAccess
		var locks []LockOp
		if version >= version2 {
			r, mem, locks, prevAddr = d.record2(prevAddr)
		} else {
			r, mem, locks = d.record()
		}
		th.Append(r, mem, locks)
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

// count passes n through, recording an error if it exceeds maxCount.
func (d *decoder) count(what string, n uint64) uint64 {
	if d.err == nil && n > maxCount {
		d.err = fmt.Errorf("implausible %s count %d", what, n)
	}
	return n
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

func (d *decoder) record() (r Record, mem []MemAccess, locks []LockOp) {
	r = Record{Kind: Kind(d.byte())}
	switch r.Kind {
	case KindBBL:
		r.Func = uint32(d.uvarint())
		r.Block = uint32(d.uvarint())
		r.N = d.uvarint()
		nm := d.count("mem access", d.uvarint())
		if nm > 0 && d.err == nil {
			mem = make([]MemAccess, 0, preallocCap(nm))
			for i := uint64(0); i < nm && d.err == nil; i++ {
				mem = append(mem, MemAccess{
					Instr: uint16(d.uvarint()),
					Addr:  d.uvarint(),
					Size:  d.byte(),
					Store: d.bool(),
				})
			}
		}
		nl := d.count("lock op", d.uvarint())
		if nl > 0 && d.err == nil {
			locks = make([]LockOp, 0, preallocCap(nl))
			for i := uint64(0); i < nl && d.err == nil; i++ {
				locks = append(locks, LockOp{
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
	return r, mem, locks
}

func (d *decoder) record2(prevAddr uint64) (r Record, mem []MemAccess, locks []LockOp, _ uint64) {
	r = Record{Kind: Kind(d.byte())}
	switch r.Kind {
	case KindBBL:
		r.Func = uint32(d.uvarint())
		r.Block = uint32(d.uvarint())
		r.N = d.uvarint()
		nm := d.count("mem access", d.uvarint())
		if nm > 0 && d.err == nil {
			mem = make([]MemAccess, 0, preallocCap(nm))
			for i := uint64(0); i < nm && d.err == nil; i++ {
				instr := uint16(d.uvarint())
				addr := prevAddr + uint64(unzigzag(d.uvarint()))
				prevAddr = addr
				mem = append(mem, MemAccess{
					Instr: instr,
					Addr:  addr,
					Size:  d.byte(),
					Store: d.bool(),
				})
			}
		}
		nl := d.count("lock op", d.uvarint())
		if nl > 0 && d.err == nil {
			locks = make([]LockOp, 0, preallocCap(nl))
			for i := uint64(0); i < nl && d.err == nil; i++ {
				instr := uint16(d.uvarint())
				addr := prevAddr + uint64(unzigzag(d.uvarint()))
				prevAddr = addr
				locks = append(locks, LockOp{
					Instr:   instr,
					Addr:    addr,
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
	return r, mem, locks, prevAddr
}
