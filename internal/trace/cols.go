package trace

// This file defines the replay-oriented control word of a trace record. The
// SIMT replay engine's lockstep-fusion fast path verifies, for every window
// element, that all active lanes carry the same upcoming block execution — a
// comparison that only involves a record's control fields (kind, function,
// block, instruction count, lock presence, access-list length), never its
// accesses. Packing exactly those fields into one uint64 per record turns
// that per-lane check into a single 8-byte compare and cuts the
// verification loop's memory traffic fourfold versus touching 32-byte
// Record structs. The accesses themselves are read from the threads' Mem
// tables: the fused memory-charge path gathers the active lanes' access
// lists only for elements whose control word says they touch memory, and
// takes their length from the word's mem field below its saturation.
//
// The words are a table of the trace: ThreadTrace.Ctl holds one per record,
// written where the record is written — by fillSection as it decodes the
// record, and by ThreadTrace.Append — so no analysis packs them, and they
// are as immutable as the records they describe.
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
	// this long or longer, and its length is read from the record offsets.
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

// Cols is a per-thread table of control words, Ctl[i] parallel to
// Threads[i].Records.
//
// Deprecated: every trace carries its control words in ThreadTrace.Ctl,
// written by the decoder and by ThreadTrace.Append, and replay reads only
// those. Cols, NewCols, SetThread and Trace.Cols remain for the end-to-end
// benchmark's mirror of the analyzer's stages.
type Cols struct {
	Ctl [][]uint64
}

// NewCols returns an empty column view with room for n threads.
//
// Deprecated: see Cols.
func NewCols(n int) *Cols {
	return &Cols{Ctl: make([][]uint64, n)}
}

// SetThread packs thread i's control words into a slice of its own.
//
// Deprecated: see Cols.
func (c *Cols) SetThread(i int, th *ThreadTrace) {
	c.Ctl[i] = PackCtl(make([]uint64, len(th.Records)), th)
}

// PackCtl writes the control words of th's records into dst, which must
// hold at least one word per record, and returns dst[:len(th.Records)]. It
// takes each record's access and lock op counts from the offsets.
func PackCtl(dst []uint64, th *ThreadTrace) []uint64 {
	ctl := dst[:len(th.Records)]
	for j := range th.Records {
		mlo, mhi, llo, lhi := th.bounds(j)
		ctl[j] = ctlWord(&th.Records[j], mhi-mlo, lhi-llo)
	}
	return ctl
}

// ctlWord packs the control word of record r carrying nmem accesses and
// nlock lock ops; a count below zero, from offsets that decrease, packs as
// zero. Every builder writes a record's word through it: fillSection as it
// decodes the record, and Append.
func ctlWord(r *Record, nmem, nlock int) uint64 {
	if r.N > CtlNMask || r.Block >= 1<<ctlBlockBits || r.Func >= 1<<ctlFuncBits || r.Kind > KindSkip {
		return CtlInvalid
	}
	w := r.N | uint64(r.Block)<<CtlBlockShift | uint64(r.Func)<<CtlFuncShift | uint64(r.Kind)<<CtlKindShift
	if nlock > 0 {
		w |= CtlLocksBit
	}
	if nmem > 0 {
		w |= uint64(min(nmem, CtlMemOverflow)) << CtlMemShift
	}
	return w
}
