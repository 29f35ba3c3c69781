// Package opt models the gcc optimization levels the paper sweeps in its
// correlation study (section IV, figure 5). The paper traces each workload
// compiled at -O0/-O1/-O2/-O3 and observes that:
//
//   - O0 "exhibited a tendency to include a load or store instruction for
//     each global variable access", inflating memory transactions;
//   - O1 is the closest approximation to the GPU binary (lowest MAE);
//   - O2/O3 apply aggressive transformations — if-conversion, jump tables —
//     that "play a role in minimizing code divergence", so the analyzer
//     overestimates SIMT efficiency relative to hardware.
//
// The transforms here are semantics-preserving IR rewrites that reproduce
// those effects on the synthetic binaries:
//
//   - DemoteLocals (O0): spill every local-register write to a stack slot
//     and reload locals before reads, like unoptimized codegen;
//   - DuplicateLoads (O0): reload memory operands redundantly, modelling
//     the per-access global loads of -O0;
//   - IfConvert (O2, O3, and the "nvcc" hardware build): flatten small
//     branch diamonds into straight-line cmov code; the size budget grows
//     with the level, and GPUs themselves predicate only tiny branches.
package opt

import (
	"fmt"

	"threadfuser/internal/ir"
)

// Level is a compiler optimization level.
type Level int

const (
	O0 Level = iota
	O1
	O2
	O3
)

func (l Level) String() string {
	switch l {
	case O0:
		return "O0"
	case O1:
		return "O1"
	case O2:
		return "O2"
	case O3:
		return "O3"
	}
	return "O?"
}

// Levels lists the sweep order used by the correlation experiments.
var Levels = []Level{O0, O1, O2, O3}

// ParseLevel parses a level by its String form ("O0".."O3").
func ParseLevel(s string) (Level, error) {
	for _, l := range Levels {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown optimization level %q (want O0..O3)", s)
}

// If-conversion size budgets per level (instructions per branch side).
const (
	ifBudgetO2 = 4
	ifBudgetO3 = 12
)

// IfBudget returns the per-side if-conversion instruction budget the given
// level applies (0 for levels that do not if-convert). The static melding
// matcher uses the O3 budget as its "already handled by the optimizer" line.
func IfBudget(l Level) int {
	switch l {
	case O2:
		return ifBudgetO2
	case O3:
		return ifBudgetO3
	}
	return 0
}

// Apply returns a new program compiled at the given level. The canonical
// program (as authored by internal/workloads) is treated as the -O1 build.
func Apply(p *ir.Program, lvl Level) *ir.Program {
	out := ir.Clone(p)
	switch lvl {
	case O0:
		DuplicateLoads(out)
		DemoteLocals(out)
	case O1:
		// canonical
	case O2:
		IfConvert(out, ifBudgetO2)
	case O3:
		IfConvertStores(out, ifBudgetO3)
	}
	if err := ir.Validate(out); err != nil {
		panic("opt: transform produced invalid program: " + err.Error())
	}
	return out
}

// HardwareBuild returns the "nvcc" build the lockstep oracle executes. GPU
// compilers lean on SIMT divergence rather than if-conversion for visible
// branches, so the hardware build is the canonical program unchanged; the
// gcc-style O2/O3 builds then *overestimate* efficiency relative to it,
// which is exactly the direction the paper reports for aggressive CPU
// optimization (section IV).
func HardwareBuild(p *ir.Program) *ir.Program {
	return ir.Clone(p)
}

// demotable reports whether reg is a workload local subject to -O0 stack
// spilling (r0..r9; stdlib scratch and reserved registers keep their
// register allocation even at -O0, like callee-saved temporaries).
func demotable(r ir.Reg) bool { return r < 10 }

// slot returns the stack slot used for a demoted local. Slots sit in the
// thread's red zone below SP, which the workloads never use directly.
func slot(r ir.Reg) ir.Operand {
	return ir.Mem(ir.SP, -8*int64(r)-256, 8)
}

// DemoteLocals rewrites every function so writes to local registers are
// followed by a spill to the register's stack slot, and reads of a local
// that has been spilled earlier in the same block are preceded by a reload.
// The reload is redundant (the register still holds the value), which is
// exactly what -O0 codegen produces — stack traffic without semantic change.
func DemoteLocals(p *ir.Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			var out []ir.Instr
			spilled := [ir.NumRegs]bool{}
			for _, in := range b.Instrs {
				// Reload spilled sources before the instruction. -O0
				// reloads on every read, so the slot stays "spilled".
				for _, r := range readRegs(&in) {
					if demotable(r) && spilled[r] {
						out = append(out, ir.Instr{Op: ir.OpMov, Dst: ir.Rg(r), Src: slot(r)})
					}
				}
				out = append(out, in)
				// Spill register destinations after the instruction.
				if !in.Op.IsTerminator() && in.Dst.Kind == ir.OpndReg && demotable(in.Dst.Reg) && writesDst(in.Op) {
					out = append(out, ir.Instr{Op: ir.OpMov, Dst: slot(in.Dst.Reg), Src: ir.Rg(in.Dst.Reg)})
					spilled[in.Dst.Reg] = true
				}
			}
			b.Instrs = out
		}
	}
}

// DuplicateLoads inserts a redundant load into a scratch register before
// every instruction with a memory source, modelling -O0's reload of every
// global/heap access.
func DuplicateLoads(p *ir.Program) {
	const scratch = ir.Reg(29)
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			var out []ir.Instr
			for _, in := range b.Instrs {
				if in.Src.IsMem() && in.Op != ir.OpLea && in.Op != ir.OpLock && in.Op != ir.OpUnlock {
					out = append(out, ir.Instr{Op: ir.OpMov, Dst: ir.Rg(scratch), Src: in.Src})
				}
				out = append(out, in)
			}
			b.Instrs = out
		}
	}
}

// writesDst reports whether the opcode writes its destination operand.
func writesDst(op ir.Opcode) bool {
	switch op {
	case ir.OpCmp, ir.OpTest, ir.OpFCmp, ir.OpNop, ir.OpLock, ir.OpUnlock, ir.OpIO, ir.OpSpin:
		return false
	}
	return true
}

// readRegs returns the registers an instruction reads (sources, memory
// address components, and read-modify-write destinations).
func readRegs(in *ir.Instr) []ir.Reg {
	var regs []ir.Reg
	add := func(r ir.Reg) { regs = append(regs, r) }
	scanOperand := func(o ir.Operand) {
		switch o.Kind {
		case ir.OpndReg:
			add(o.Reg)
		case ir.OpndMem:
			add(o.Mem.Base)
			if o.Mem.HasIndex {
				add(o.Mem.Index)
			}
		}
	}
	scanOperand(in.Src)
	switch in.Op {
	case ir.OpMov, ir.OpLea:
		// Destination is write-only; only its address registers are read.
		if in.Dst.IsMem() {
			scanOperand(in.Dst)
		}
	default:
		scanOperand(in.Dst) // RMW or compare: destination value is read
	}
	return regs
}
