// Package trace defines the dynamic-trace format exchanged between the
// ThreadFuser tracer (internal/vm, the stand-in for the paper's PIN tool)
// and the ThreadFuser analyzer (internal/core).
//
// A trace carries, per CPU thread, exactly the information the paper's
// tracer records (section III):
//
//   - the sequence of executed basic blocks with their instruction counts,
//   - per-instruction memory accesses (address, width, load/store),
//   - function call and return points with callee identity,
//   - the addresses of acquired and released locks, positioned within their
//     basic block, and
//   - counters of skipped instructions (I/O regions and lock spinning),
//     which figure 8 of the paper reports.
//
// The format is self-describing: a function table with names and static
// block instruction counts accompanies the per-thread event streams, so the
// analyzer needs no access to the original program (closed-source binaries
// are in scope for the paper).
package trace

import (
	"fmt"
	"math"
)

// Kind discriminates Record.
type Kind uint8

const (
	// KindBBL records execution of one basic block.
	KindBBL Kind = iota
	// KindCall records entry into a function (emitted before the callee's
	// first block).
	KindCall
	// KindRet records return from the current function.
	KindRet
	// KindSkip records instructions executed but not traced (I/O, spinning).
	KindSkip
)

func (k Kind) String() string {
	switch k {
	case KindBBL:
		return "BBL"
	case KindCall:
		return "CALL"
	case KindRet:
		return "RET"
	case KindSkip:
		return "SKIP"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// SkipKind classifies skipped instruction regions.
type SkipKind uint8

const (
	// SkipIO marks instructions inside I/O or system-call regions.
	SkipIO SkipKind = iota
	// SkipSpin marks lock busy-wait instructions.
	SkipSpin
)

func (s SkipKind) String() string {
	if s == SkipSpin {
		return "spin"
	}
	return "io"
}

// MemAccess is one memory access initiated by the instruction at index
// Instr within its basic block. A read-modify-write x86 instruction emits
// two accesses with the same index.
type MemAccess struct {
	Addr  uint64
	Instr uint16 // instruction index within the block
	Size  uint8
	Store bool
}

// LockOp is a lock acquire or release performed by the instruction at index
// Instr within its basic block. Addr comes first so that the struct packs
// into 16 bytes.
type LockOp struct {
	Addr    uint64
	Instr   uint16
	Release bool
}

// Record is one trace event.
//
//   - KindBBL: Func/Block identify the block, N its instruction count, and
//     its per-instruction memory and lock activity is a range of its
//     thread's Mem and Locks tables (read them through ThreadTrace.MemOf and
//     LocksOf).
//   - KindCall: Callee identifies the function being entered.
//   - KindRet: no fields.
//   - KindSkip: N instructions of SkipKind were executed untraced.
//
// A Record holds no pointers (TestRecordIsPointerFree pins it), so a record
// table is one flat allocation the garbage collector never scans. Every
// record, whatever its kind, holds its running offsets into the thread's
// tables: MemLo counts the accesses of the records before it, LockLo their
// lock ops. A record's range runs from its offset to the next record's, or
// to the end of the table after the last record, so the counts are not
// stored, and only a block record's range may be non-empty.
type Record struct {
	N        uint64
	Func     uint32
	Block    uint32
	Callee   uint32
	MemLo    uint32 // accesses of the records before this one
	LockLo   uint32 // lock ops of the records before this one
	Kind     Kind
	SkipKind SkipKind
}

// ThreadTrace is the complete event stream of one CPU thread: its records,
// and the memory accesses and lock operations they carry, in record order,
// plus each record's control word (cols.go). Every builder (the decoder,
// Append) writes each record's running offsets and control word
// (CheckLayout), and leaves an empty Mem or Locks table nil and Ctl nil
// exactly when Records is, so two ThreadTraces built that way are
// reflect.DeepEqual exactly when they hold the same events.
type ThreadTrace struct {
	TID     int
	Records []Record
	Mem     []MemAccess
	Locks   []LockOp
	// Ctl[i] is Records[i]'s control word, which replay's fusion fast path
	// compares across lanes.
	Ctl []uint64
}

// bounds returns record i's access range [mlo,mhi) and lock range
// [llo,lhi): each runs from the record's offset to the next record's, or to
// the end of the table after the last record. A range is well-formed when
// fits holds.
func (t *ThreadTrace) bounds(i int) (mlo, mhi, llo, lhi int) {
	mlo, llo = int(t.Records[i].MemLo), int(t.Records[i].LockLo)
	if i+1 < len(t.Records) {
		next := &t.Records[i+1]
		return mlo, int(next.MemLo), llo, int(next.LockLo)
	}
	return mlo, len(t.Mem), llo, len(t.Locks)
}

// MemOf returns record i's memory accesses, a view of t.Mem whose capacity
// ends with the view, so an append to it copies instead of overwriting the
// next record's accesses.
func (t *ThreadTrace) MemOf(i int) []MemAccess {
	lo, hi, _, _ := t.bounds(i)
	return t.Mem[lo:hi:hi]
}

// LocksOf returns record i's lock operations, a view of t.Locks bounded
// like MemOf's.
func (t *ThreadTrace) LocksOf(i int) []LockOp {
	_, _, lo, hi := t.bounds(i)
	return t.Locks[lo:hi:hi]
}

// Append appends r to the thread with mem and locks as its accesses and lock
// operations, copying them onto the ends of the thread's tables, setting r's
// offsets to match (whatever r held), and packing r's control word. It is
// the one way in-memory builders add records, so their tables keep the
// layout CheckLayout checks.
func (t *ThreadTrace) Append(r Record, mem []MemAccess, locks []LockOp) {
	r.MemLo = tableOffset(len(t.Mem), len(mem), "access")
	r.LockLo = tableOffset(len(t.Locks), len(locks), "lock op")
	t.Mem = append(t.Mem, mem...)
	t.Locks = append(t.Locks, locks...)
	t.Records = append(t.Records, r)
	t.Ctl = append(t.Ctl, ctlWord(&r, len(mem), len(locks)))
}

// tableOffset returns the offset of n entries appended to a table of length
// lo, panicking if the table would outgrow the uint32 offsets.
func tableOffset(lo, n int, what string) uint32 {
	if uint64(lo)+uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("trace: a thread's %s table would exceed %d entries", what, uint64(math.MaxUint32)))
	}
	return uint32(lo)
}

// CheckLayout reports whether t's tables have the layout every builder
// gives them: each record's offsets are the running counts of the accesses
// and lock ops before it, starting at 0, so the records' ranges tile the
// tables in record order; and Ctl holds each record's control word.
// Analysis needs only offsets that never decrease and stay within the
// tables, and one word per record, which Validate checks; this layout is
// what makes reflect.DeepEqual compare events. The error, if any, is a
// Defect.
func (t *ThreadTrace) CheckLayout() error {
	if err := t.checkCtlCount(); err != nil {
		return err
	}
	if len(t.Records) == 0 && (len(t.Mem) > 0 || len(t.Locks) > 0) {
		return t.defect(-1, "no records for tables holding %d accesses and %d lock ops", len(t.Mem), len(t.Locks))
	}
	for i := range t.Records {
		mlo, mhi, llo, lhi := t.bounds(i)
		if i == 0 && (mlo != 0 || llo != 0) || !t.fits(mlo, mhi, llo, lhi) {
			return t.defect(i, "access range [%d,%d) and lock range [%d,%d) do not continue the tables (%d and %d entries) from 0",
				mlo, mhi, llo, lhi, len(t.Mem), len(t.Locks))
		}
		if w := ctlWord(&t.Records[i], mhi-mlo, lhi-llo); t.Ctl[i] != w {
			return t.defect(i, "control word %#x, record packs to %#x", t.Ctl[i], w)
		}
	}
	return nil
}

// checkCtlCount reports a thread that does not hold one control word per
// record.
func (t *ThreadTrace) checkCtlCount() error {
	if len(t.Ctl) != len(t.Records) {
		return t.defect(-1, "%d control words for %d records", len(t.Ctl), len(t.Records))
	}
	return nil
}

// InTables reports whether record i's ranges are well-formed: its offsets
// are no greater than the next record's, and those lie within t's tables.
// It is all MemOf and LocksOf need.
func (t *ThreadTrace) InTables(i int) bool { return t.fits(t.bounds(i)) }

// fits reports whether [mlo,mhi) and [llo,lhi) are ranges of t's Mem and
// Locks tables.
func (t *ThreadTrace) fits(mlo, mhi, llo, lhi int) bool {
	return mlo <= mhi && mhi <= len(t.Mem) && llo <= lhi && lhi <= len(t.Locks)
}

// Instructions returns the number of traced (non-skipped) dynamic
// instructions in the thread's stream.
func (t *ThreadTrace) Instructions() uint64 {
	var n uint64
	for i := range t.Records {
		if t.Records[i].Kind == KindBBL {
			n += t.Records[i].N
		}
	}
	return n
}

// Skipped returns the number of skipped instructions by kind.
func (t *ThreadTrace) Skipped() (io, spin uint64) {
	for i := range t.Records {
		if r := &t.Records[i]; r.Kind == KindSkip {
			if r.SkipKind == SkipSpin {
				spin += r.N
			} else {
				io += r.N
			}
		}
	}
	return io, spin
}

// BlockInfo is static metadata about one basic block of a traced function.
type BlockInfo struct {
	NInstr uint32
}

// FuncInfo is the per-function entry of the trace's symbol table.
type FuncInfo struct {
	Name   string
	Blocks []BlockInfo
}

// Trace is a complete multi-threaded program trace.
type Trace struct {
	Program string
	Entry   uint32 // entry function id of the traced workload
	Funcs   []FuncInfo
	Threads []*ThreadTrace

	// Cols is ignored: replay reads each thread's Ctl.
	//
	// Deprecated: see Cols.
	Cols *Cols `json:"-"`
}

// FuncName returns the symbol-table name for a function id.
func (t *Trace) FuncName(id uint32) string {
	if int(id) < len(t.Funcs) {
		return t.Funcs[id].Name
	}
	return fmt.Sprintf("f%d", id)
}

// TotalInstructions returns the traced dynamic instruction count over all
// threads.
func (t *Trace) TotalInstructions() uint64 {
	var n uint64
	for _, th := range t.Threads {
		n += th.Instructions()
	}
	return n
}

// TotalSkipped returns the skipped instruction counts over all threads.
func (t *Trace) TotalSkipped() (io, spin uint64) {
	for _, th := range t.Threads {
		i, s := th.Skipped()
		io += i
		spin += s
	}
	return io, spin
}

// A Defect is one way a thread breaks the trace's structure: what is wrong,
// at which record (-1 when it is the thread's as a whole). ValidateThread
// and CheckLayout return Defects as their errors.
type Defect struct {
	TID    int
	Record int
	Msg    string
}

func (d Defect) Error() string {
	if d.Record < 0 {
		return fmt.Sprintf("trace: thread %d: %s", d.TID, d.Msg)
	}
	return fmt.Sprintf("trace: thread %d record %d: %s", d.TID, d.Record, d.Msg)
}

func (t *ThreadTrace) defect(rec int, format string, args ...any) Defect {
	return Defect{TID: t.TID, Record: rec, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks internal consistency, one thread at a time: see
// ValidateThread.
func (t *Trace) Validate() error {
	for _, th := range t.Threads {
		if err := t.ValidateThread(th); err != nil {
			return err
		}
	}
	return nil
}

// ValidateThread returns one thread's first defect (a Defect) against the
// trace's symbol table: ids that do not resolve, instruction counts off the
// static table, access and lock ranges outside the thread's tables or past
// their block, a call, return or skip record with accesses or lock ops,
// call/ret frames that do not nest (a return below the entry, a block
// outside any invocation or of another function than the innermost call,
// calls left open), or a control word count other than one per record.
// The DCFG builder and replay rely on a thread that passes. Threads
// validate independently, so the analyzer's ingest checks them in parallel.
func (t *Trace) ValidateThread(th *ThreadTrace) error {
	if err := th.checkCtlCount(); err != nil {
		return err
	}
	var first error
	t.walk(th, func(rec int, format string, args ...any) bool {
		if first == nil {
			first = th.defect(rec, format, args...)
		}
		return false
	})
	return first
}

// ThreadDefects calls report with every defect of th's records that
// ValidateThread checks for, in record order, where ValidateThread returns
// only the first. The lint sanitizer reports each one.
func (t *Trace) ThreadDefects(th *ThreadTrace, report func(Defect)) {
	t.walk(th, func(rec int, format string, args ...any) bool {
		report(th.defect(rec, format, args...))
		return true
	})
}

// walk hands each structural defect of th's records to bad, in record
// order, and stops after the record at hand once bad returns false. A
// block's range checks come before its frame check, so a corrupted function
// id reports "out of range" first. The callee stack starts on a local
// array, so a thread whose calls nest no deeper than 64 is walked without
// allocating.
func (t *Trace) walk(th *ThreadTrace, bad func(rec int, format string, args ...any) bool) {
	// top is the innermost open invocation's callee; outer holds the callee
	// each open invocation interrupted, so its length is the call depth.
	var buf [64]uint32
	outer, top, more := buf[:0], uint32(0), true
	for i := 0; more && i < len(th.Records); i++ {
		r := &th.Records[i]
		mlo, mhi, llo, lhi := th.bounds(i)
		switch r.Kind {
		case KindBBL:
			if int(r.Func) >= len(t.Funcs) {
				more = bad(i, "func %d out of range", r.Func)
			} else if blocks := t.Funcs[r.Func].Blocks; int(r.Block) >= len(blocks) {
				more = bad(i, "block %d out of range in %s", r.Block, t.Funcs[r.Func].Name)
			} else if want := uint64(blocks[r.Block].NInstr); r.N != want {
				more = bad(i, "%s block %d has %d instrs, static table says %d", t.Funcs[r.Func].Name, r.Block, r.N, want)
			}
			if !th.fits(mlo, mhi, llo, lhi) {
				more = bad(i, "access range [%d,%d) or lock range [%d,%d) lies outside the tables (%d and %d entries)",
					mlo, mhi, llo, lhi, len(th.Mem), len(th.Locks))
			} else {
				for _, m := range th.Mem[mlo:mhi] {
					if uint64(m.Instr) >= r.N {
						more = bad(i, "mem access at instr %d >= block size %d", m.Instr, r.N)
					}
				}
				for _, l := range th.Locks[llo:lhi] {
					if uint64(l.Instr) >= r.N {
						more = bad(i, "lock op at instr %d >= block size %d", l.Instr, r.N)
					}
				}
			}
			if len(outer) == 0 {
				more = bad(i, "block outside any function invocation")
			} else if top != r.Func {
				more = bad(i, "block of %s inside an invocation of %s", t.FuncName(r.Func), t.FuncName(top))
			}
		case KindCall:
			if int(r.Callee) >= len(t.Funcs) {
				more = bad(i, "callee %d out of range", r.Callee)
			}
			outer = append(outer, top)
			top = r.Callee
		case KindRet:
			if len(outer) == 0 {
				more = bad(i, "return below entry")
			} else {
				top = outer[len(outer)-1]
				outer = outer[:len(outer)-1]
			}
		case KindSkip:
		default:
			more = bad(i, "unknown kind %d", r.Kind)
		}
		// The encoder writes accesses and lock ops only for blocks, and the
		// offsets would attribute them to any other record.
		if r.Kind != KindBBL && (mlo != mhi || llo != lhi) {
			more = bad(i, "%v record carries access range [%d,%d) and lock range [%d,%d); only a block may", r.Kind, mlo, mhi, llo, lhi)
		}
	}
	if more && len(outer) != 0 {
		bad(-1, "unbalanced call depth %d at end of stream", len(outer))
	}
}
