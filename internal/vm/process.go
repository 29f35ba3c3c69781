// Package vm executes mini-ISA programs (internal/ir) one thread at a time,
// emitting the dynamic traces the ThreadFuser analyzer consumes. It is the
// reproduction's stand-in for the paper's Intel-PIN tracing tool: instead of
// instrumenting an x86 binary, it interprets the synthetic binary directly,
// producing the identical event stream (basic blocks, per-instruction memory
// accesses, call/return points, lock addresses, skipped-instruction counts).
//
// Threads are traced sequentially and to completion, which mirrors the
// paper's tracing assumptions: lock acquisitions never block during tracing
// (fine-grain locking is assumed; spinning is recorded as skipped
// instructions rather than traced), and each thread corresponds to one unit
// of SIMT work (one OpenMP iteration or pthread worker invocation).
package vm

import (
	"fmt"

	"threadfuser/internal/ir"
	"threadfuser/internal/trace"
)

// Reserved global slots (addresses relative to GlobalBase) used by the
// synthetic runtime's allocators. Two allocator models exist, matching the
// paper's discussion of synchronization in microservices (section V-B):
//
//   - an arena allocator ("high-throughput concurrent memory manager"):
//     NumArenas independent bump pointers, each guarded by its own lock, so
//     threads in a warp mostly allocate in parallel; and
//   - a glibc-style allocator: one shared bump pointer behind one shared
//     mutex, the serialization source the paper identifies in
//     HDSearch-Midtier's ProcessRequest/vector methods.
const (
	// NumArenas is the arena count of the concurrent allocator.
	NumArenas = 8
	// ArenaStateStride separates per-arena state records.
	ArenaStateStride = 32
	// ArenaStateBase is the address of arena 0's state: the bump pointer
	// at +0 and the arena lock word at +8.
	ArenaStateBase = GlobalBase + 0
	// GlibcNextAddr / GlibcLockAddr are the single-mutex allocator's bump
	// pointer and lock word. Setup-time AllocHeap shares this bump pointer.
	GlibcNextAddr = GlobalBase + 256
	GlibcLockAddr = GlobalBase + 264
	// ArenaSpan is the heap carved out per arena.
	ArenaSpan uint64 = 16 << 30
	// globalsStart is the first address handed out for setup-time globals.
	globalsStart = GlobalBase + 1024
)

// Process is one traced program instance: the program, its shared address
// space, and allocation state. All threads of the process share the memory.
type Process struct {
	Prog *ir.Program
	Mem  *Memory

	globalNext uint64

	// Stats accumulated across all threads.
	DivByZero uint64 // integer divisions by zero (defined to yield 0)
}

// NewProcess creates a process with an initialized address space: each
// allocator arena's bump pointer points at its heap span, and the
// glibc-style/setup-time bump pointer at the span past the arenas.
func NewProcess(prog *ir.Program) *Process {
	p := &Process{
		Prog:       prog,
		Mem:        NewMemory(),
		globalNext: globalsStart,
	}
	for i := uint64(0); i < NumArenas; i++ {
		p.Mem.Write(ArenaStateBase+i*ArenaStateStride, 8, HeapBase+i*ArenaSpan)
	}
	p.Mem.Write(GlibcNextAddr, 8, HeapBase+NumArenas*ArenaSpan)
	return p
}

// AllocGlobal reserves n bytes in the global segment (16-byte aligned) and
// returns the base address. Used by workload Setup functions for inputs that
// model static/global CPU data.
func (p *Process) AllocGlobal(n uint64) uint64 {
	addr := p.globalNext
	p.globalNext += (n + 15) &^ 15
	if p.globalNext >= HeapBase {
		panic(fmt.Sprintf("vm: global segment overflow (%d bytes requested)", n))
	}
	return addr
}

// AllocHeap reserves n bytes on the shared heap (16-byte aligned) via the
// same bump pointer the IR-level glibc-style malloc uses, so setup-time
// allocations and runtime allocations interleave realistically.
func (p *Process) AllocHeap(n uint64) uint64 {
	addr := p.Mem.Read(GlibcNextAddr, 8)
	next := addr + ((n + 15) &^ 15)
	if next >= StackBase {
		panic(fmt.Sprintf("vm: heap overflow (%d bytes requested)", n))
	}
	p.Mem.Write(GlibcNextAddr, 8, next)
	return addr
}

// WriteI64 stores a 64-bit integer at addr.
func (p *Process) WriteI64(addr uint64, v int64) { p.Mem.Write(addr, 8, uint64(v)) }

// ReadI64 loads a 64-bit integer from addr.
func (p *Process) ReadI64(addr uint64) int64 { return int64(p.Mem.Read(addr, 8)) }

// WriteF64 stores a float64 at addr.
func (p *Process) WriteF64(addr uint64, v float64) { p.Mem.Write(addr, 8, f2b(v)) }

// ReadF64 loads a float64 from addr.
func (p *Process) ReadF64(addr uint64) float64 { return b2f(p.Mem.Read(addr, 8)) }

// SymbolTable builds the trace symbol table (function names and static block
// instruction counts) for the process's program.
func SymbolTable(prog *ir.Program) []trace.FuncInfo {
	funcs := make([]trace.FuncInfo, len(prog.Funcs))
	for i, f := range prog.Funcs {
		fi := trace.FuncInfo{Name: f.Name, Blocks: make([]trace.BlockInfo, len(f.Blocks))}
		for j, b := range f.Blocks {
			fi.Blocks[j] = trace.BlockInfo{NInstr: uint32(b.NumInstrs())}
		}
		funcs[i] = fi
	}
	return funcs
}

// RunConfig bounds a traced thread.
type RunConfig struct {
	// MaxInstrs aborts the thread after this many traced instructions,
	// guarding against divergent synthetic workloads. Zero means the
	// default of 20M.
	MaxInstrs uint64
}

const defaultMaxInstrs = 20_000_000

// TraceAll traces nthreads executions of the program's entry function and
// assembles a complete trace. args, if non-nil, is called with each new
// thread before it runs so the caller can set initial registers.
func TraceAll(p *Process, nthreads int, cfg RunConfig, args func(tid int, th *Thread)) (*trace.Trace, error) {
	t := &trace.Trace{
		Program: p.Prog.Name,
		Entry:   uint32(p.Prog.Entry),
		Funcs:   SymbolTable(p.Prog),
	}
	for tid := 0; tid < nthreads; tid++ {
		th := p.NewThread(tid)
		if args != nil {
			args(tid, th)
		}
		tt, err := th.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("vm: thread %d: %w", tid, err)
		}
		t.Threads = append(t.Threads, tt)
	}
	return t, nil
}
