package main

import (
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one traced op share Op; the
// op's root span has Parent -1. Start and End are nanoseconds since the
// tracer started. Allocs counts heap objects allocated during the span
// (including its children); Bytes and Instrs carry the work the span did
// where the layer has a natural unit (file bytes decoded, instructions
// replayed); Tag names the trace encoding a decode span read.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Allocs uint64 `json:"allocs"`
	Bytes  int64  `json:"bytes,omitempty"`
	Instrs uint64 `json:"instrs,omitempty"`
	Tag    string `json:"tag,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// countAllocs names the layers whose spans count allocations. Counting
// reads runtime.MemStats, which stops the world, so it is limited to the
// layers an allocation metric is reported for; the reads fall outside the
// span's own interval.
var countAllocs = map[string]bool{"trace.decode": true, "simt.replay": true}

// tracer records spans in memory. It is used from one goroutine: the
// traced phase runs its ops one at a time.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) allocs(name string) uint64 {
	if !countAllocs[name] {
		return 0
	}
	runtime.ReadMemStats(&t.ms)
	return t.ms.Mallocs
}

// beginOp opens the root span of a new op.
func (t *tracer) beginOp() int {
	t.op++
	return t.begin("op")
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Op: t.op, Parent: parent, Name: name, Allocs: t.allocs(name)})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) *span {
	now := int64(time.Since(t.t0))
	s := &t.spans[id]
	s.End = now
	s.Allocs = t.allocs(s.Name) - s.Allocs
	t.stack = t.stack[:len(t.stack)-1]
	return s
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its direct children, which may
// overlap each other (concurrent calls) and nest further (their own
// children are inside them already).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.dur() - unionLen(iv)
	}
	return self
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if !open || v[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v[0], v[1], true
			continue
		}
		curHi = max(curHi, v[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}
