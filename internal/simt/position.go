// Package simt replays per-thread MIMD traces under SIMT-stack semantics:
// warps execute basic blocks in lockstep, diverge on differing control flow,
// and reconverge at immediate post-dominators, exactly as the paper's
// analyzer emulates contemporary GPU hardware (sections II and III). The
// replay also implements the paper's intra-warp lock serialization: threads
// acquiring the same lock address execute their critical sections serially,
// reconverging after the matching release.
package simt

import (
	"fmt"

	"threadfuser/internal/trace"
)

// posKind discriminates position.
type posKind uint8

const (
	posDone posKind = iota // thread trace exhausted
	posBlock
	posExit // about to return from fn (the function's virtual exit block)
)

// position identifies where a thread stands in its trace for lockstep
// comparison. Depth is the call depth, so the same static block in two
// different (possibly recursive) invocations never spuriously matches.
// Threads within one SIMT-stack entry always share (fn, depth) because they
// execute identical block sequences between divergence points.
type position struct {
	kind  posKind
	fn    uint32
	block uint32
	depth int32
}

var donePos = position{kind: posDone}

func (p position) String() string {
	switch p.kind {
	case posDone:
		return "done"
	case posExit:
		return fmt.Sprintf("exit(f%d)@%d", p.fn, p.depth)
	default:
		return fmt.Sprintf("f%d.b%d@%d", p.fn, p.block, p.depth)
	}
}

// key orders positions deterministically for divergence-group processing.
func (p position) key() uint64 {
	return uint64(p.kind)<<62 | uint64(p.depth&0x3fff)<<48 | uint64(p.fn)<<24 | uint64(p.block)
}

// cursor walks one thread's record stream during replay. th is the thread
// itself, whose tables hold the records' accesses and lock ops; recs is its
// record table, kept beside it for the hot loops.
type cursor struct {
	th    *trace.ThreadTrace
	recs  []trace.Record
	idx   int      // next unconsumed record
	depth int32    // current call depth
	funcs []uint32 // function stack (len == depth)

	// peek memo: group formation re-peeks every active lane each SIMT-stack
	// step, but only the lanes that just executed have moved. posOK is
	// cleared by everything that consumes records (consumeBlock, consumeExit,
	// drainTrailingSkips, advance, reset).
	pos   position
	posOK bool

	// Skip counters accumulated as skip records are consumed.
	skipIO   uint64
	skipSpin uint64
}

// reset points the cursor at a new thread's records, keeping the function
// stack's backing array so replay workers reuse cursors across warps without
// reallocating.
func (c *cursor) reset(th *trace.ThreadTrace) {
	c.th, c.recs = th, th.Records
	c.idx = 0
	c.depth = 0
	c.funcs = c.funcs[:0]
	c.posOK = false
	c.skipIO = 0
	c.skipSpin = 0
}

// advance consumes k records wholesale — the fused window's bulk cursor
// move. The caller (execRunFused) guarantees all k records are basic blocks
// at the current call depth, so depth and the skip counters are unaffected.
func (c *cursor) advance(k int) {
	c.idx += k
	c.posOK = false
}

// peek returns the thread's next position without consuming anything.
func (c *cursor) peek() position {
	if c.posOK {
		return c.pos
	}
	p := c.peekSlow()
	c.pos, c.posOK = p, true
	return p
}

func (c *cursor) peekSlow() position {
	depth := c.depth
	for i := c.idx; i < len(c.recs); i++ {
		switch r := &c.recs[i]; r.Kind {
		case trace.KindSkip:
			continue
		case trace.KindCall:
			depth++
		case trace.KindBBL:
			return position{kind: posBlock, fn: r.Func, block: r.Block, depth: depth}
		case trace.KindRet:
			if depth == c.depth && depth > 0 {
				return position{kind: posExit, fn: c.funcs[depth-1], depth: depth}
			}
			// A RET at increased peek-depth without an intervening block
			// cannot occur in well-formed traces; treat as that frame's
			// exit for robustness.
			if depth > 0 {
				depth--
				continue
			}
			return donePos
		}
	}
	return donePos
}

// consumeBlock advances through skip and call records up to and including
// the next basic-block record, updating depth and skip counters, and returns
// the record's index. It must only be called when peek().kind == posBlock.
func (c *cursor) consumeBlock() int {
	c.posOK = false
	for c.idx < len(c.recs) {
		i := c.idx
		r := &c.recs[i]
		c.idx++
		switch r.Kind {
		case trace.KindSkip:
			c.addSkip(r)
		case trace.KindCall:
			c.depth++
			c.funcs = append(c.funcs, r.Callee)
		case trace.KindBBL:
			return i
		case trace.KindRet:
			panic("simt: consumeBlock reached a return record")
		}
	}
	panic("simt: consumeBlock ran off the end of the trace")
}

// consumeExit advances through skip records and the return record that ends
// the current function invocation. It must only be called when peek().kind
// == posExit.
func (c *cursor) consumeExit() {
	c.posOK = false
	for c.idx < len(c.recs) {
		r := &c.recs[c.idx]
		c.idx++
		switch r.Kind {
		case trace.KindSkip:
			c.addSkip(r)
		case trace.KindRet:
			c.depth--
			c.funcs = c.funcs[:len(c.funcs)-1]
			return
		default:
			panic(fmt.Sprintf("simt: consumeExit hit %s record", r.Kind))
		}
	}
	panic("simt: consumeExit ran off the end of the trace")
}

func (c *cursor) addSkip(r *trace.Record) {
	if r.SkipKind == trace.SkipSpin {
		c.skipSpin += r.N
	} else {
		c.skipIO += r.N
	}
}

// peekBlock returns the index of the next basic-block record without
// consuming it, or -1 if the thread's next position is not a block. The
// lock-contention check inspects the upcoming block's acquire addresses
// through it.
func (c *cursor) peekBlock() int {
	for i := c.idx; i < len(c.recs); i++ {
		switch c.recs[i].Kind {
		case trace.KindSkip, trace.KindCall:
			continue
		case trace.KindBBL:
			return i
		default:
			return -1
		}
	}
	return -1
}

// drainTrailingSkips consumes skip records at the very end of the stream so
// their counts are accounted even after the last block executes.
func (c *cursor) drainTrailingSkips() {
	c.posOK = false
	for c.idx < len(c.recs) && c.recs[c.idx].Kind == trace.KindSkip {
		c.addSkip(&c.recs[c.idx])
		c.idx++
	}
}

// releasePosition scans forward (without consuming) for the release matching
// the acquire of addr that the thread is about to perform, and returns the
// thread's position immediately after the basic block containing that
// release — the paper's "unlock pair of one of the threads" reconvergence
// point for serialized critical sections. ok is false when no matching
// release is found before the trace ends.
func (c *cursor) releasePosition(addr uint64) (position, bool) {
	depth := c.depth
	nest := 0
	releaseFound := false
	var relFn uint32
	var relDepth int32
	for i := c.idx; i < len(c.recs); i++ {
		r := &c.recs[i]
		switch r.Kind {
		case trace.KindCall:
			depth++
		case trace.KindRet:
			if releaseFound {
				// The release block's function returns immediately after
				// the release: reconverge at its virtual exit.
				return position{kind: posExit, fn: relFn, depth: relDepth}, true
			}
			if depth == 0 {
				return donePos, false
			}
			depth--
		case trace.KindBBL:
			if releaseFound {
				return position{kind: posBlock, fn: r.Func, block: r.Block, depth: depth}, true
			}
			for _, l := range c.th.LocksOf(i) {
				if l.Addr != addr {
					continue
				}
				if l.Release {
					if nest > 0 {
						nest--
						if nest == 0 {
							releaseFound = true
							relFn, relDepth = r.Func, depth
						}
					}
				} else {
					nest++
				}
			}
		}
	}
	return donePos, false
}
