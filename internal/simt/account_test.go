package simt

import (
	"math"
	"reflect"
	"testing"

	"threadfuser/internal/trace"
	"threadfuser/internal/vm"
)

// site builds one lane's access for a list position: lane li of a
// progression from base by stride.
type site struct {
	instr        uint16
	base, stride uint64
	size         uint8
	store        bool
}

func (s site) at(li int) trace.MemAccess {
	return trace.MemAccess{Addr: s.base + uint64(li)*s.stride, Instr: s.instr, Size: s.size, Store: s.store}
}

// laneMems builds nl lanes' access lists from the given sites, each lane
// taking its own point of every progression.
func laneMems(nl int, sites ...site) [][]trace.MemAccess {
	mems := make([][]trace.MemAccess, nl)
	for li := range mems {
		mem := make([]trace.MemAccess, len(sites))
		for j, s := range sites {
			mem[j] = s.at(li)
		}
		mems[li] = mem
	}
	return mems
}

type siteCall struct {
	instr           uint16
	stackTx, heapTx int
}

// chargeWith runs one charge function on fresh metrics and records its Site
// calls.
func chargeWith(charge func(mc *MemCharger, wm *WarpMetrics, fm *FuncMetrics) bool) (WarpMetrics, FuncMetrics, []siteCall, bool) {
	var wm WarpMetrics
	var fm FuncMetrics
	var calls []siteCall
	mc := MemCharger{Site: func(instr uint16, st, ht int) { calls = append(calls, siteCall{instr, st, ht}) }}
	ok := charge(&mc, &wm, &fm)
	return wm, fm, calls, ok
}

// TestChargeUniformMatchesCharge checks the fused closed form against the
// stepped engine's Charge on hand-built lane access lists: where chargeUniform
// accepts a shape its metrics and Site calls must equal Charge's, and where
// it declines nothing may be charged.
func TestChargeUniformMatchesCharge(t *testing.T) {
	const heap = vm.HeapBase + 0x1000
	const stack = vm.StackBase + 0x2000
	// wrapStride takes lane 1 to the top of the address space, so lane 2's
	// address equals lane 1's plus the stride only modulo 2^64 — yet lands
	// back in the stack segment above lane 0.
	const wrapStride = math.MaxUint64 - 7 - vm.StackBase

	cases := []struct {
		name    string
		mems    [][]trace.MemAccess
		uniform bool // whether the closed form should apply
	}{
		{"m1 contiguous", laneMems(32, site{0, heap, 4, 4, false}), true},
		{"m1 stride 0", laneMems(32, site{1, heap + 8, 0, 8, false}), true},
		{"m1 stride below size", laneMems(32, site{0, heap + 3, 2, 4, true}), true},
		{"m1 stride multiple of 32 disjoint", laneMems(32, site{0, heap, 64, 8, false}), true},
		{"m1 stride 32 chained sectors", laneMems(32, site{0, heap + 28, 32, 8, false}), true},
		{"m1 mixed alignment", laneMems(32, site{0, heap + 4, 12, 8, false}), true},
		{"m1 mixed alignment gaps", laneMems(32, site{2, heap + 20, 44, 16, true}), true},
		{"m1 stack", laneMems(16, site{0, stack, 8, 8, true}), true},
		{"m1 global", laneMems(8, site{0, 0x1000, 4, 4, false}), true},
		{"m1 one lane", laneMems(1, site{0, heap + 30, 0, 8, false}), true},
		{"m1 64 lanes SectorCap disjoint", laneMems(64, site{0, heap + 16, 256, 64, false}), true},
		{"m1 64 lanes SectorCap mixed", laneMems(64, site{0, heap + 16, 100, 64, false}), true},
		{"m2", laneMems(32, site{0, heap, 4, 4, false}, site{3, stack, 8, 8, true}), true},
		{"m3", laneMems(32, site{0, heap, 0, 8, false}, site{1, heap + 4, 36, 4, false}, site{2, stack + 4, 64, 8, true}), true},
		{"m4", laneMems(8, site{0, heap, 4, 4, false}, site{1, heap, 4, 4, true}, site{5, stack, 8, 8, false}, site{9, 0x2000, 96, 8, true}), true},
		{"m5", laneMems(4, site{0, heap, 4, 4, false}, site{1, heap + 1, 3, 2, false}, site{2, stack, 32, 8, true}, site{3, heap, 0, 1, false}, site{4, heap + 31, 33, 2, true}), true},
		{"m6 64 lanes", laneMems(64, site{0, heap, 4, 4, false}, site{1, heap, 256, 64, false}, site{2, stack, 8, 8, true}, site{3, heap + 7, 13, 8, false}, site{4, heap, 0, 4, true}, site{5, stack + 16, 100, 64, false}), true},
		{"m0", laneMems(32), true},
		{"m7", laneMems(4, site{0, heap, 4, 4, false}, site{1, heap, 4, 4, false}, site{2, heap, 4, 4, false}, site{3, heap, 4, 4, false}, site{4, heap, 4, 4, false}, site{5, heap, 4, 4, false}, site{6, heap, 4, 4, false}), false},
		{"crosses stack/heap boundary", laneMems(4, site{0, vm.StackBase - 64, 32, 4, false}), false},
		{"m2 crosses stack/heap boundary", laneMems(4, site{0, heap, 4, 4, false}, site{1, vm.StackBase - 64, 32, 4, true}), false},
		{"span wraps past 2^64", laneMems(3, site{0, math.MaxUint64 - 35, 16, 8, false}), false},
		{"progression wraps past 2^64", laneMems(3, site{0, vm.StackBase, wrapStride, 4, false}), false},
		{"m2 progression wraps past 2^64", laneMems(3, site{0, heap, 4, 4, false}, site{1, vm.StackBase, wrapStride, 4, false}), false},
		{"size 0", laneMems(8, site{0, heap + 4, 4, 0, false}), false},
		{"m2 size 0", laneMems(8, site{0, heap, 4, 4, false}, site{1, heap + 4, 4, 0, false}), false},
		{"repeated instr", laneMems(8, site{1, heap, 4, 4, false}, site{1, heap + 64, 4, 4, true}), false},
		{"decreasing instr", laneMems(8, site{2, heap, 4, 4, false}, site{1, stack, 4, 4, false}), false},
		{"decreasing addresses", laneMems(8, site{0, heap + 256, math.MaxUint64 - 3, 4, false}), false},
	}

	// Shapes that differ from a clean progression in a single lane.
	perturb := func(name string, nl int, sites []site, lane int, edit func(m *[]trace.MemAccess)) {
		mems := laneMems(nl, sites...)
		edit(&mems[lane])
		cases = append(cases, struct {
			name    string
			mems    [][]trace.MemAccess
			uniform bool
		}{name, mems, false})
	}
	one := []site{{0, heap, 4, 4, false}}
	two := []site{{0, heap, 4, 4, false}, {1, stack, 8, 8, true}}
	perturb("m1 lane list longer", 8, one, 5, func(m *[]trace.MemAccess) { *m = append(*m, trace.MemAccess{Addr: heap, Instr: 1, Size: 4}) })
	perturb("m1 lane list empty", 8, one, 1, func(m *[]trace.MemAccess) { *m = nil })
	perturb("m2 lane list shorter", 8, two, 3, func(m *[]trace.MemAccess) { *m = (*m)[:1] })
	perturb("m2 lane 1 list longer", 8, two, 1, func(m *[]trace.MemAccess) { *m = append(*m, trace.MemAccess{Addr: heap, Instr: 2, Size: 4}) })
	perturb("m0 lane list nonempty", 8, nil, 6, func(m *[]trace.MemAccess) { *m = []trace.MemAccess{{Addr: heap, Size: 4}} })
	perturb("m1 lane store differs", 8, one, 4, func(m *[]trace.MemAccess) { (*m)[0].Store = true })
	perturb("m1 lane size differs", 8, one, 1, func(m *[]trace.MemAccess) { (*m)[0].Size = 8 })
	perturb("m1 lane instr differs", 8, one, 7, func(m *[]trace.MemAccess) { (*m)[0].Instr = 3 })
	perturb("m1 lane off stride", 8, one, 6, func(m *[]trace.MemAccess) { (*m)[0].Addr += 4 })
	perturb("m2 lane 1 below lane 0", 8, two, 1, func(m *[]trace.MemAccess) { (*m)[1].Addr = stack - 8 })
	perturb("m2 lane store differs", 8, two, 2, func(m *[]trace.MemAccess) { (*m)[1].Store = false })
	perturb("m2 lane off stride", 8, two, 5, func(m *[]trace.MemAccess) { (*m)[1].Addr += 1 })

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantWM, wantFM, wantCalls, _ := chargeWith(func(mc *MemCharger, wm *WarpMetrics, fm *FuncMetrics) bool {
				mc.Charge(wm, fm, tc.mems)
				return true
			})
			gotWM, gotFM, gotCalls, ok := chargeWith(func(mc *MemCharger, wm *WarpMetrics, fm *FuncMetrics) bool {
				return mc.chargeUniform(wm, fm, tc.mems)
			})
			if ok != tc.uniform {
				t.Errorf("chargeUniform = %v, want %v", ok, tc.uniform)
			}
			if !ok {
				wantWM, wantFM, wantCalls = WarpMetrics{}, FuncMetrics{}, nil
			}
			if gotWM != wantWM {
				t.Errorf("WarpMetrics = %+v, want %+v", gotWM, wantWM)
			}
			if gotFM != wantFM {
				t.Errorf("FuncMetrics = %+v, want %+v", gotFM, wantFM)
			}
			if !reflect.DeepEqual(gotCalls, wantCalls) {
				t.Errorf("Site calls = %v, want %v", gotCalls, wantCalls)
			}
		})
	}
}
