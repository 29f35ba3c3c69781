package vm

import "fmt"

// Address-space layout. The tracer classifies every access into a segment;
// the analyzer's coalescing model (paper figure 10) reports stack and heap
// transactions separately, and the warp-trace generator maps stack accesses
// to local memory and everything else to global memory (paper section III).
const (
	// GlobalBase is the start of the global/static data segment, where
	// workload Setup functions place shared inputs.
	GlobalBase uint64 = 0x10_0000_0000
	// HeapBase is the start of the shared heap served by the allocator.
	HeapBase uint64 = 0x40_0000_0000
	// StackBase is the start of the per-thread stack area.
	StackBase uint64 = 0x70_0000_0000
	// StackSize is the size of each thread's private stack segment.
	StackSize uint64 = 1 << 20
)

// Segment classifies an address.
type Segment uint8

const (
	SegGlobal Segment = iota
	SegHeap
	SegStack
)

func (s Segment) String() string {
	switch s {
	case SegGlobal:
		return "global"
	case SegHeap:
		return "heap"
	case SegStack:
		return "stack"
	}
	return fmt.Sprintf("segment(%d)", uint8(s))
}

// SegmentOf returns the segment containing addr. Addresses below HeapBase
// are global, addresses in [HeapBase, StackBase) are heap, and everything
// at or above StackBase is thread stack.
func SegmentOf(addr uint64) Segment {
	switch {
	case addr >= StackBase:
		return SegStack
	case addr >= HeapBase:
		return SegHeap
	default:
		return SegGlobal
	}
}

// StackTop returns the initial stack pointer for a thread: the exclusive
// top of its private stack segment (stacks grow downward).
func StackTop(tid int) uint64 {
	return StackBase + uint64(tid+1)*StackSize
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// Memory is a sparse, paged byte-addressable address space shared by all
// threads of a Process. Unwritten memory reads as zero. It is not safe for
// concurrent use; the tracer runs threads sequentially (locks never block
// during tracing, matching the paper's fine-grain-locking assumption).
type Memory struct {
	pages map[uint64]*page
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64, create bool) *page {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new(page)
		m.pages[pn] = p
	}
	return p
}

// Read returns the size-byte little-endian value at addr. size must be
// 1, 2, 4 or 8; accesses may straddle page boundaries.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	var v uint64
	for i := uint8(0); i < size; i++ {
		a := addr + uint64(i)
		if p := m.pageFor(a, false); p != nil {
			v |= uint64(p[a&pageMask]) << (8 * i)
		}
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian.
func (m *Memory) Write(addr uint64, size uint8, v uint64) {
	for i := uint8(0); i < size; i++ {
		a := addr + uint64(i)
		p := m.pageFor(a, true)
		p[a&pageMask] = byte(v >> (8 * i))
	}
}

// HashBelow returns an FNV-1a hash of all resident memory at addresses
// below limit. Differential tests use it to check that two executions (for
// example the canonical and a compiler-transformed build) left identical
// global and heap state, ignoring thread stacks.
func (m *Memory) HashBelow(limit uint64) uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		if pn<<pageShift < limit {
			pns = append(pns, pn)
		}
	}
	// Sort page numbers so the hash is order-independent.
	for i := 1; i < len(pns); i++ {
		for j := i; j > 0 && pns[j] < pns[j-1]; j-- {
			pns[j], pns[j-1] = pns[j-1], pns[j]
		}
	}
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, pn := range pns {
		pg := m.pages[pn]
		zero := true
		for _, b := range pg {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			// All-zero pages are indistinguishable from absent memory;
			// skipping them keeps the hash stable when a transform merely
			// touches (reads and rewrites) untouched addresses.
			continue
		}
		h = (h ^ pn) * prime
		for _, b := range pg {
			h = (h ^ uint64(b)) * prime
		}
	}
	return h
}

// signExtend widens a size-byte value read from memory to int64.
func signExtend(v uint64, size uint8) int64 {
	shift := 64 - 8*uint(size)
	return int64(v<<shift) >> shift
}
