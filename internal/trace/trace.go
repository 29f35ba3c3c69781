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

import "fmt"

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
// Instr within its basic block.
type LockOp struct {
	Instr   uint16
	Addr    uint64
	Release bool
}

// Record is one trace event.
//
//   - KindBBL: Func/Block identify the block, N its instruction count, and
//     Mem/Locks its per-instruction memory and lock activity.
//   - KindCall: Callee identifies the function being entered.
//   - KindRet: no fields.
//   - KindSkip: N instructions of SkipKind were executed untraced.
type Record struct {
	N        uint64
	Func     uint32
	Block    uint32
	Kind     Kind
	SkipKind SkipKind
	Callee   uint32
	Mem      []MemAccess
	Locks    []LockOp
}

// ThreadTrace is the complete event stream of one CPU thread.
type ThreadTrace struct {
	TID     int
	Records []Record
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

	// Cols caches the control-word column replay's fusion fast path walks (see
	// cols.go). It is derived state — never serialized, never compared —
	// populated by the analyzer's ingest and invalidated by mutating Records.
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

// Validate checks internal consistency: record function/block ids resolve in
// the symbol table, BBL instruction counts match the static table, call/ret
// nesting is balanced, and memory/lock instruction indices are in range.
func (t *Trace) Validate() error {
	for _, th := range t.Threads {
		if err := t.ValidateThread(th); err != nil {
			return err
		}
	}
	return nil
}

// ValidateThread checks one thread's records against the trace's symbol
// table. Threads validate independently, which is what lets the streaming
// analyzer pipeline validation into the per-section decode workers instead
// of paying a separate whole-trace pass.
func (t *Trace) ValidateThread(th *ThreadTrace) error {
	depth := 0
	for i := range th.Records {
		r := &th.Records[i]
		switch r.Kind {
		case KindBBL:
			if int(r.Func) >= len(t.Funcs) {
				return fmt.Errorf("trace: thread %d record %d: func %d out of range", th.TID, i, r.Func)
			}
			blocks := t.Funcs[r.Func].Blocks
			if int(r.Block) >= len(blocks) {
				return fmt.Errorf("trace: thread %d record %d: block %d out of range in %s",
					th.TID, i, r.Block, t.Funcs[r.Func].Name)
			}
			if want := uint64(blocks[r.Block].NInstr); r.N != want {
				return fmt.Errorf("trace: thread %d record %d: %s block %d has %d instrs, static table says %d",
					th.TID, i, t.Funcs[r.Func].Name, r.Block, r.N, want)
			}
			for _, m := range r.Mem {
				if uint64(m.Instr) >= r.N {
					return fmt.Errorf("trace: thread %d record %d: mem access at instr %d >= block size %d",
						th.TID, i, m.Instr, r.N)
				}
			}
			for _, l := range r.Locks {
				if uint64(l.Instr) >= r.N {
					return fmt.Errorf("trace: thread %d record %d: lock op at instr %d >= block size %d",
						th.TID, i, l.Instr, r.N)
				}
			}
		case KindCall:
			if int(r.Callee) >= len(t.Funcs) {
				return fmt.Errorf("trace: thread %d record %d: callee %d out of range", th.TID, i, r.Callee)
			}
			depth++
		case KindRet:
			depth--
			if depth < 0 {
				return fmt.Errorf("trace: thread %d record %d: return below entry", th.TID, i)
			}
		case KindSkip:
		default:
			return fmt.Errorf("trace: thread %d record %d: unknown kind %d", th.TID, i, r.Kind)
		}
	}
	if depth != 0 {
		return fmt.Errorf("trace: thread %d: unbalanced call depth %d at end of stream", th.TID, depth)
	}
	return nil
}
