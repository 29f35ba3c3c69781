package trace

// This file defines the replay-oriented control-word column of a trace. The
// SIMT replay engine's lockstep-fusion fast path verifies, for every window
// element, that all active lanes carry the same upcoming block execution — a
// comparison that only involves a record's control fields (kind, function,
// block, instruction count, lock presence, access-list length), never its
// accesses. Packing exactly those fields into one uint64 per record turns
// that per-lane check into a single 8-byte compare and cuts the
// verification loop's memory traffic fivefold versus touching 40-byte
// Record structs. The accesses themselves are read from the threads' Mem
// tables: the fused memory-charge path gathers the active lanes' access
// lists only for elements whose control word says they touch memory.
//
// Control-word layout (low to high):
//
//	bits  0..19  N        instruction count (20 bits)
//	bits 20..38  Block    basic-block id (19 bits)
//	bits 39..56  Func     function id (18 bits)
//	bits 57..58  Kind     record kind (KindBBL == 0)
//	bit  59      locks    record carries at least one lock operation
//	bits 60..62  mem      access-list length, saturated at CtlMemOverflow
//	bit  63      invalid  some field overflowed its width; never fuse
//
// Records whose fields do not fit are marked CtlInvalid, which the fused
// path treats exactly like any other window breaker: the stepped engine —
// which reads the full Record — handles them, so packing width limits are a
// performance cliff, never a correctness one.
const (
	ctlNBits     = 20
	ctlBlockBits = 19
	ctlFuncBits  = 18

	// CtlNMask extracts a control word's instruction count.
	CtlNMask = 1<<ctlNBits - 1
	// CtlBlockShift positions the block id field.
	CtlBlockShift = ctlNBits
	// CtlFuncShift positions the function id field.
	CtlFuncShift = ctlNBits + ctlBlockBits
	// CtlKindShift positions the record kind field.
	CtlKindShift = ctlNBits + ctlBlockBits + ctlFuncBits
	// CtlKindMask isolates the kind field; a KindBBL record contributes zero
	// bits here, so `ctl & CtlKindMask != 0` reads "not a block record".
	CtlKindMask = uint64(3) << CtlKindShift
	// CtlLocksBit is set when the record carries lock operations.
	CtlLocksBit = uint64(1) << 59
	// CtlMemShift positions the access-list length field.
	CtlMemShift = 60
	// CtlMemOverflow is the saturated access-list length: the real list is
	// this long or longer and must be read from the Record.
	CtlMemOverflow = 7
	// CtlInvalid marks a record whose fields overflow the packed widths.
	CtlInvalid = uint64(1) << 63

	// CtlFnBlockMask isolates the (function, block) fields — a window's
	// position identity at constant call depth.
	CtlFnBlockMask = uint64(1<<(ctlBlockBits+ctlFuncBits)-1) << CtlBlockShift
	// CtlFuncMask isolates the function field alone.
	CtlFuncMask = uint64(1<<ctlFuncBits-1) << CtlFuncShift
	// CtlRunMask isolates (function, block, N) — the identity of one scaled
	// accounting run inside a fused window.
	CtlRunMask = CtlFnBlockMask | CtlNMask
)

// PackFnBlock packs a (function, block) pair the way control words hold it,
// for masked comparison against `ctl & CtlFnBlockMask`. Ids that overflow
// their field widths spill into higher bits, so the comparison simply fails
// — which is correct, because any record actually carrying such ids was
// marked CtlInvalid at build time.
func PackFnBlock(fn, block uint32) uint64 {
	return uint64(fn)<<CtlFuncShift | uint64(block)<<CtlBlockShift
}

// CtlFunc extracts the function id of a valid control word.
func CtlFunc(ctl uint64) uint32 {
	return uint32(ctl >> CtlFuncShift & (1<<ctlFuncBits - 1))
}

// CtlBlock extracts the block id of a valid control word.
func CtlBlock(ctl uint64) uint32 {
	return uint32(ctl >> CtlBlockShift & (1<<ctlBlockBits - 1))
}

// Cols is the packed control-word view of a trace's threads: one control
// word per record. The outer slice is indexed by the thread's position in
// Trace.Threads, and Ctl[i] is parallel to Threads[i].Records. A Cols is a
// derived, read-only view: it must be rebuilt if the underlying records
// change.
type Cols struct {
	Ctl [][]uint64
}

// BuildCols derives the packed column view of a trace: one streaming pass
// per thread into its slot of AllocCols. The result is safe for concurrent
// readers.
func BuildCols(t *Trace) *Cols {
	c := AllocCols(t)
	for i, th := range t.Threads {
		PackCtl(c.Ctl[i], th)
	}
	return c
}

// ctlSlabWords is the size of the slabs AllocCols carves thread columns
// from: 32 KB, the largest object the Go allocator serves from its small
// size classes. One multi-megabyte column for a whole trace, the alternative,
// is a large object, and in paired end-to-end runs on a 2-vCPU machine it
// raised the peak RSS of a 2048-4096-thread batch analysis by 7%; slabs
// this size did not.
const ctlSlabWords = 32 << 10 / 8

// AllocCols returns a column view whose slot i is sized for t.Threads[i]'s
// control words, ready for PackCtl. Consecutive threads share 32 KB slabs,
// and a thread too large for one gets an allocation of its own, so a trace
// costs one allocation per slab, not one per thread. A nil thread gets no
// slot.
func AllocCols(t *Trace) *Cols {
	c := NewCols(len(t.Threads))
	var slab []uint64
	for i, th := range t.Threads {
		if th == nil {
			continue
		}
		n := len(th.Records)
		switch l := len(slab); {
		case n <= cap(slab)-l:
			slab = slab[:l+n]
			c.Ctl[i] = slab[l : l+n : l+n]
		case n >= ctlSlabWords:
			c.Ctl[i] = make([]uint64, n)
		default:
			slab = make([]uint64, n, ctlSlabWords)
			c.Ctl[i] = slab[:n:n]
		}
	}
	return c
}

// NewCols returns an empty column view with room for n threads, for callers
// that fill thread slots out of order via SetThread. AllocCols is the sized
// alternative: the analyzer's ingest packs each thread into its slot in the
// worker that just validated it, while the thread is still cache-hot.
func NewCols(n int) *Cols {
	return &Cols{Ctl: make([][]uint64, n)}
}

// SetThread derives and installs thread i's control words in a slice of
// their own. Distinct slots may be filled concurrently; the view is safe for
// readers once every slot a reader touches has been set.
func (c *Cols) SetThread(i int, th *ThreadTrace) {
	c.Ctl[i] = PackCtl(make([]uint64, len(th.Records)), th)
}

// PackCtl writes the control words of th's records into dst, which must
// hold at least one word per record, and returns dst[:len(th.Records)]. It
// allocates nothing, so callers that pack many threads can pack each into
// its slot of AllocCols.
func PackCtl(dst []uint64, th *ThreadTrace) []uint64 {
	ctl := dst[:len(th.Records)]
	for j := range th.Records {
		r := &th.Records[j]
		if r.N > CtlNMask || r.Block >= 1<<ctlBlockBits || r.Func >= 1<<ctlFuncBits || r.Kind > KindSkip {
			ctl[j] = CtlInvalid
			continue
		}
		w := r.N | uint64(r.Block)<<CtlBlockShift | uint64(r.Func)<<CtlFuncShift | uint64(r.Kind)<<CtlKindShift
		if r.LockN > 0 {
			w |= CtlLocksBit
		}
		if ml := r.MemN; ml >= CtlMemOverflow {
			w |= CtlMemOverflow << CtlMemShift
		} else {
			w |= uint64(ml) << CtlMemShift
		}
		ctl[j] = w
	}
	return ctl
}
