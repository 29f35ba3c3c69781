// Package simtrace generates warp-based instruction traces, the bridge
// between ThreadFuser's analysis and a trace-driven SIMT simulator (the
// paper feeds Accel-Sim; this reproduction feeds internal/gpusim).
//
// As in the paper (section III), x86 CISC instructions are cracked into
// RISC micro-ops — an ALU instruction with a memory source becomes a load
// plus the ALU op, a read-modify-write becomes load/op/store — and memory
// accesses are tagged by space: thread-stack addresses become local-space
// accesses (interleaved per lane on real GPUs), everything else global.
// Each warp instruction carries the active mask and the active lanes'
// addresses so the simulator can coalesce exactly as hardware would.
package simtrace

import (
	"fmt"
	"math/bits"

	"threadfuser/internal/ir"
	"threadfuser/internal/simt"
	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// Space is a memory space in the generated trace.
type Space uint8

const (
	SpaceNone Space = iota
	// SpaceLocal maps the thread-private stack segment.
	SpaceLocal
	// SpaceGlobal maps heap and global-segment accesses.
	SpaceGlobal
)

func (s Space) String() string {
	switch s {
	case SpaceLocal:
		return "local"
	case SpaceGlobal:
		return "global"
	}
	return "none"
}

// NoReg marks an unused register slot in a micro-op.
const NoReg = 0xFF

// Temporary registers introduced by cracking (beyond the architectural 32).
const (
	TmpLoad = 32 + iota
	TmpStore
	NumTraceRegs
)

// WInstr is one warp-level RISC micro-op.
type WInstr struct {
	// PC is a synthetic program counter: function<<20 | block<<8 | slot.
	PC uint64
	// Class drives the timing model (ALU, FPU, SFU, Mem, Ctrl, Sync).
	Class ir.Class
	// Op is the originating opcode (for dumps and statistics).
	Op ir.Opcode
	// Dst and Srcs are register ids (NoReg when absent) used for
	// dependence tracking in the simulator's scoreboard.
	Dst  uint8
	Srcs [2]uint8
	// Mask is the active-lane mask.
	Mask uint64
	// Memory fields, valid when Class == ir.ClassMem.
	Load  bool
	Space Space
	Size  uint8
	// Addrs holds the active lanes' addresses in ascending lane order.
	Addrs []uint64
}

// ActiveLanes returns the number of active lanes.
func (w *WInstr) ActiveLanes() int { return bits.OnesCount64(w.Mask) }

// WarpStream is the ordered micro-op stream of one warp.
type WarpStream struct {
	Warp   int
	Instrs []WInstr
}

// KernelTrace is a complete warp-trace "kernel" for the simulator.
type KernelTrace struct {
	Program  string
	WarpSize int
	Warps    []*WarpStream
}

// TotalInstrs returns the total warp micro-op count.
func (k *KernelTrace) TotalInstrs() uint64 {
	var n uint64
	for _, w := range k.Warps {
		n += uint64(len(w.Instrs))
	}
	return n
}

// TotalLaneInstrs returns micro-ops summed over active lanes.
func (k *KernelTrace) TotalLaneInstrs() uint64 {
	var n uint64
	for _, w := range k.Warps {
		for i := range w.Instrs {
			n += uint64(w.Instrs[i].ActiveLanes())
		}
	}
	return n
}

// collector implements simt.Listener, cracking each lockstep block
// execution into the warp streams.
type collector struct {
	prog     *ir.Program
	warpSize int
	streams  map[int]*WarpStream
	err      error
}

// Generate replays a MIMD trace under the analyzer's SIMT emulation and
// emits the warp-based instruction trace (the "ThreadFuser trace" path of
// figure 6). The analysis options select warp size and batching.
func Generate(prog *ir.Program, tr *trace.Trace, warpSize int) (*KernelTrace, error) {
	c := &collector{prog: prog, warpSize: warpSize, streams: map[int]*WarpStream{}}
	_, err := analyzeWithListener(tr, warpSize, c)
	if err != nil {
		return nil, err
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.finish(prog.Name, warpSize), nil
}

// FromHardware runs the program live on the lockstep oracle and emits its
// warp trace — the stand-in for nvbit-collected traces of the native CUDA
// twin (figure 6's "CUDA implementation" series).
func FromHardware(p *vm.Process, threads, warpSize int, args func(int, *vm.Thread)) (*KernelTrace, error) {
	c := &collector{prog: p.Prog, warpSize: warpSize, streams: map[int]*WarpStream{}}
	if _, err := hwRun(p, threads, warpSize, c, args); err != nil {
		return nil, err
	}
	if c.err != nil {
		return nil, c.err
	}
	return c.finish(p.Prog.Name, warpSize), nil
}

func (c *collector) finish(name string, warpSize int) *KernelTrace {
	kt := &KernelTrace{Program: name, WarpSize: warpSize}
	maxWarp := -1
	for w := range c.streams {
		if w > maxWarp {
			maxWarp = w
		}
	}
	for w := 0; w <= maxWarp; w++ {
		if s := c.streams[w]; s != nil {
			kt.Warps = append(kt.Warps, s)
		}
	}
	return kt
}

func (c *collector) OnBlock(be *simt.BlockExec) {
	if c.err != nil {
		return
	}
	f := c.prog.Func(ir.FuncID(be.Func))
	if int(be.Block) >= len(f.Blocks) {
		c.err = fmt.Errorf("simtrace: block %d out of range in %s", be.Block, f.Name)
		return
	}
	b := f.Blocks[be.Block]
	stream := c.streams[be.Warp]
	if stream == nil {
		stream = &WarpStream{Warp: be.Warp}
		c.streams[be.Warp] = stream
	}
	var mask uint64
	for _, l := range be.Lanes {
		mask |= 1 << uint(l)
	}
	for i := range b.Instrs {
		c.crack(stream, be, b, uint16(i), mask)
	}
}

// crack emits the micro-ops for one static instruction.
func (c *collector) crack(s *WarpStream, be *simt.BlockExec, b *ir.Block, idx uint16, mask uint64) {
	in := &b.Instrs[idx]
	pc := uint64(be.Func)<<20 | uint64(be.Block)<<8 | uint64(idx)

	switch in.Op {
	case ir.OpIO, ir.OpSpin:
		return // untraced regions never reach the simulator
	case ir.OpLock, ir.OpUnlock:
		s.Instrs = append(s.Instrs, WInstr{
			PC: pc, Class: ir.ClassSync, Op: in.Op, Dst: NoReg,
			Srcs: [2]uint8{NoReg, NoReg}, Mask: mask,
		})
		return
	}

	m, load, store := in.MemOperand()
	if load {
		addrs, size := c.gatherAddrs(be, idx, false)
		s.Instrs = append(s.Instrs, WInstr{
			PC: pc, Class: ir.ClassMem, Op: ir.OpMov,
			Dst: TmpLoad, Srcs: [2]uint8{addrReg(m), addrReg2(m)},
			Mask: mask, Load: true, Space: spaceOf(addrs), Size: size, Addrs: addrs,
		})
	}

	// The compute micro-op (skipped for pure loads/stores via OpMov).
	isPureMove := in.Op == ir.OpMov && (load || store)
	if !isPureMove {
		dst, s1, s2 := regUse(in, load)
		class := in.Op.OpClass()
		if class == ir.ClassNop {
			class = ir.ClassALU
		}
		s.Instrs = append(s.Instrs, WInstr{
			PC: pc, Class: class, Op: in.Op, Dst: dst, Srcs: [2]uint8{s1, s2}, Mask: mask,
		})
	}

	if store {
		addrs, size := c.gatherAddrs(be, idx, true)
		src := uint8(TmpStore)
		if isPureMove {
			if in.Src.Kind == ir.OpndReg {
				src = uint8(in.Src.Reg)
			} else {
				src = NoReg
			}
		}
		s.Instrs = append(s.Instrs, WInstr{
			PC: pc, Class: ir.ClassMem, Op: ir.OpMov,
			Dst: NoReg, Srcs: [2]uint8{src, addrReg(m)},
			Mask: mask, Load: false, Space: spaceOf(addrs), Size: size, Addrs: addrs,
		})
	}
}

// gatherAddrs collects active lanes' addresses for the instruction index,
// in ascending lane order.
func (c *collector) gatherAddrs(be *simt.BlockExec, idx uint16, store bool) ([]uint64, uint8) {
	var addrs []uint64
	var size uint8
	for _, mem := range be.Mem {
		for _, m := range mem {
			if m.Instr == idx && m.Store == store {
				addrs = append(addrs, m.Addr)
				size = m.Size
			}
		}
	}
	return addrs, size
}

// spaceOf classifies by the first address: stack segments become local
// space, everything else global (paper section III).
func spaceOf(addrs []uint64) Space {
	if len(addrs) == 0 {
		return SpaceGlobal
	}
	if vm.SegmentOf(addrs[0]) == vm.SegStack {
		return SpaceLocal
	}
	return SpaceGlobal
}

// regUse extracts the dependence registers of the compute micro-op. When
// the source was a memory operand, the cracked load's temp register feeds
// the op instead.
func regUse(in *ir.Instr, srcWasLoad bool) (dst, s1, s2 uint8) {
	dst, s1, s2 = NoReg, NoReg, NoReg
	if in.Dst.Kind == ir.OpndReg {
		dst = uint8(in.Dst.Reg)
		switch in.Op {
		case ir.OpMov, ir.OpLea:
		default:
			s1 = dst // RMW-style ops read their destination
		}
	} else if in.Dst.IsMem() {
		dst = TmpStore
		s1 = TmpLoad
	}
	switch {
	case in.Src.Kind == ir.OpndReg:
		s2 = uint8(in.Src.Reg)
	case in.Src.IsMem() && srcWasLoad:
		s2 = TmpLoad
	}
	return dst, s1, s2
}

func addrReg(m ir.MemRef) uint8 { return uint8(m.Base) }

func addrReg2(m ir.MemRef) uint8 {
	if m.HasIndex {
		return uint8(m.Index)
	}
	return NoReg
}
