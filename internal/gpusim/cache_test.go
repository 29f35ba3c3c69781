package gpusim

import (
	"testing"

	"threadfuser/internal/cachesim"
	"threadfuser/internal/ir"
	"threadfuser/internal/simtrace"
)

func TestCacheHitMissLRU(t *testing.T) {
	c := cachesim.New(cachesim.Config{Sets: 1, Ways: 2, Latency: 1})
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("warm access missed")
	}
	c.Access(32)      // fills way 2
	if !c.Access(0) { // 0 still resident
		t.Error("LRU evicted the wrong line")
	}
	c.Access(64)      // evicts 32 (LRU)
	if c.Access(32) { // 32 gone; this miss refills it, evicting 0
		t.Error("LRU kept the least-recently-used line")
	}
	if c.Access(0) {
		t.Error("line 0 should have been evicted by the refill of 32")
	}
	if !c.Access(32) {
		t.Error("refilled line evicted prematurely")
	}
	if c.Hits == 0 || c.Misses == 0 {
		t.Error("stats not tracked")
	}
	if hr := cachesim.HitRate(c); hr <= 0 || hr >= 1 {
		t.Errorf("hit rate %v out of range", hr)
	}
}

func TestCacheSetIndexing(t *testing.T) {
	c := cachesim.New(cachesim.Config{Sets: 4, Ways: 1, Latency: 1})
	// Lines 0..3 map to distinct sets; all stay resident.
	for line := uint64(0); line < 4; line++ {
		c.Access(line * cachesim.LineSize)
	}
	for line := uint64(0); line < 4; line++ {
		if !c.Access(line * cachesim.LineSize) {
			t.Errorf("line %d evicted despite distinct sets", line)
		}
	}
}

func TestDRAMBandwidthSerializes(t *testing.T) {
	d := &dram{latency: 100, bytesClk: 1} // 32 cycles per 32B transaction
	first := d.access(0, 32)
	second := d.access(0, 32)
	if first != 100 {
		t.Errorf("first transaction done at %d, want 100", first)
	}
	if second != 132 {
		t.Errorf("second transaction done at %d, want 132 (bandwidth queued)", second)
	}
	if d.Bytes != 64 {
		t.Errorf("bytes = %d, want 64", d.Bytes)
	}
	// A transaction issued after the queue drains starts fresh.
	late := d.access(1000, 32)
	if late != 1100 {
		t.Errorf("late transaction done at %d, want 1100", late)
	}
}

// TestScoreboardBlocksDependents: a dependent ALU op cannot issue until its
// producing load completes.
func TestScoreboardBlocksDependents(t *testing.T) {
	mkKernel := func(dependent bool) *simtrace.KernelTrace {
		src := uint8(simtrace.TmpLoad)
		if !dependent {
			src = 5 // unrelated register
		}
		return &simtrace.KernelTrace{
			Program:  "k",
			WarpSize: 32,
			Warps: []*simtrace.WarpStream{{Warp: 0, Instrs: []simtrace.WInstr{
				{PC: 0, Class: ir.ClassMem, Op: ir.OpMov, Dst: simtrace.TmpLoad,
					Srcs: [2]uint8{simtrace.NoReg, simtrace.NoReg}, Mask: 1, Load: true,
					Space: simtrace.SpaceGlobal, Size: 8, Addrs: []uint64{1 << 40}},
				{PC: 1, Class: ir.ClassALU, Op: ir.OpAdd, Dst: 1,
					Srcs: [2]uint8{src, simtrace.NoReg}, Mask: 1},
			}}},
		}
	}
	cfg := RTX3070()
	cfg.NumSMs = 1
	dep, err := Run(mkKernel(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	indep, err := Run(mkKernel(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Cycles <= indep.Cycles {
		t.Errorf("dependent kernel (%d cycles) not slower than independent (%d)", dep.Cycles, indep.Cycles)
	}
	if dep.DataStalls == 0 {
		t.Error("no scoreboard stalls recorded for a load-use dependency")
	}
}

// TestMSHRPressure: more outstanding transactions than MSHRs must cause
// structural stalls.
func TestMSHRPressure(t *testing.T) {
	// One warp issuing a 32-lane fully scattered load: 32 transactions
	// against 4 MSHRs.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i) * 1 << 20
	}
	var mask uint64 = (1 << 32) - 1
	kt := &simtrace.KernelTrace{
		Program:  "k",
		WarpSize: 32,
		Warps: []*simtrace.WarpStream{
			{Warp: 0, Instrs: []simtrace.WInstr{
				{PC: 0, Class: ir.ClassMem, Op: ir.OpMov, Dst: simtrace.TmpLoad,
					Srcs: [2]uint8{simtrace.NoReg, simtrace.NoReg}, Mask: mask, Load: true,
					Space: simtrace.SpaceGlobal, Size: 8, Addrs: addrs},
			}},
			{Warp: 1, Instrs: []simtrace.WInstr{
				{PC: 0, Class: ir.ClassMem, Op: ir.OpMov, Dst: simtrace.TmpLoad,
					Srcs: [2]uint8{simtrace.NoReg, simtrace.NoReg}, Mask: mask, Load: true,
					Space: simtrace.SpaceGlobal, Size: 8, Addrs: addrs},
			}},
		},
	}
	cfg := RTX3070()
	cfg.NumSMs = 1
	cfg.MSHRsPerSM = 33 // warp 0 fits; warp 1 must wait for releases
	res, err := Run(kt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemStalls == 0 {
		t.Error("no MSHR stalls under deliberate pressure")
	}
	if res.MemTx != 64 {
		t.Errorf("transactions = %d, want 64", res.MemTx)
	}
}

// TestLocalSpaceCoalesces: local (stack) accesses are lane-interleaved on
// hardware, so a full warp's 8-byte accesses cost 8 transactions even
// though the raw per-thread stack addresses are megabytes apart.
func TestLocalSpaceCoalesces(t *testing.T) {
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x70_0000_0000 + uint64(i)*(1<<20)
	}
	var mask uint64 = (1 << 32) - 1
	mk := func(space simtrace.Space) *simtrace.KernelTrace {
		return &simtrace.KernelTrace{
			Program: "k", WarpSize: 32,
			Warps: []*simtrace.WarpStream{{Warp: 0, Instrs: []simtrace.WInstr{
				{PC: 0, Class: ir.ClassMem, Op: ir.OpMov, Dst: simtrace.TmpLoad,
					Srcs: [2]uint8{simtrace.NoReg, simtrace.NoReg}, Mask: mask, Load: true,
					Space: space, Size: 8, Addrs: addrs},
			}}},
		}
	}
	cfg := RTX3070()
	local, err := Run(mk(simtrace.SpaceLocal), cfg)
	if err != nil {
		t.Fatal(err)
	}
	global, err := Run(mk(simtrace.SpaceGlobal), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if local.MemTx != 8 {
		t.Errorf("local-space transactions = %d, want 8 (interleaved)", local.MemTx)
	}
	if global.MemTx != 32 {
		t.Errorf("global-space transactions = %d, want 32 (scattered)", global.MemTx)
	}
}

func TestOccupancyWaves(t *testing.T) {
	// More warps than resident slots: all must still complete.
	var instrs []simtrace.WInstr
	for i := 0; i < 10; i++ {
		instrs = append(instrs, simtrace.WInstr{
			PC: uint64(i), Class: ir.ClassALU, Op: ir.OpAdd, Dst: 1,
			Srcs: [2]uint8{simtrace.NoReg, simtrace.NoReg}, Mask: 3,
		})
	}
	kt := &simtrace.KernelTrace{Program: "k", WarpSize: 32}
	for w := 0; w < 12; w++ {
		ws := &simtrace.WarpStream{Warp: w, Instrs: instrs}
		kt.Warps = append(kt.Warps, ws)
	}
	cfg := RTX3070()
	cfg.NumSMs = 1
	cfg.WarpsPerSM = 3
	res, err := Run(kt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarpInstrs != 120 {
		t.Errorf("executed %d warp instrs, want 120 (all waves)", res.WarpInstrs)
	}
}
