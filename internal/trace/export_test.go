package trace

import (
	"io"
	"math/rand"
)

// Test-only exports: the legacy streaming decoder lives in a test file (it
// is a reference implementation, not API), but the differential tests in
// the external trace_test package compare it against the arena decoder.

// DecodeStream runs the legacy record-at-a-time streaming decoder.
func DecodeStream(r io.Reader) (*Trace, error) { return decodeStream(r) }

// DecodeWorkers runs the lenient whole-trace decode that Decode runs at one
// worker, filling thread sections over the given worker count (0 = one per
// core).
func DecodeWorkers(data []byte, workers int) (*Trace, error) { return decode(data, workers, false) }

// RandomTrace returns the structurally valid random trace of the seed.
func RandomTrace(seed int64) *Trace { return randomTrace(rand.New(rand.NewSource(seed))) }

// EdgeTraces returns the hand-built arena section-size edge cases.
func EdgeTraces() map[string]*Trace { return arenaEdgeTraces() }

// ShortHeaderIndex returns a copy of the v3 encoding data whose footer
// understates the header length by one byte.
func ShortHeaderIndex(data []byte) []byte {
	return rewriteIndex(data, func(headerLen *int64, _ []indexEntry) { *headerLen-- })
}

// LyingAccessIndex returns a copy of the v3 encoding data whose footer
// understates the access count of the first section that has accesses.
func LyingAccessIndex(data []byte) []byte {
	return rewriteIndex(data, func(_ *int64, index []indexEntry) {
		for i := range index {
			if index[i].nmem > 0 {
				index[i].nmem--
				return
			}
		}
	})
}

// WrongTIDIndex returns a copy of the v3 encoding data whose footer gives
// the first section a tid 1000 above the one its stream declares.
func WrongTIDIndex(data []byte) []byte {
	return rewriteIndex(data, func(_ *int64, index []indexEntry) { index[0].tid += 1000 })
}

// ShiftedBoundaryIndex returns a copy of the v3 encoding data whose footer
// moves the boundary between the first two sections one byte earlier. The
// sections still tile the data region.
func ShiftedBoundaryIndex(data []byte) []byte {
	return rewriteIndex(data, func(_ *int64, index []indexEntry) {
		index[0].len--
		index[1].off--
		index[1].len++
	})
}

// MisplacedIndex returns a copy of the v3 encoding data whose footer gives
// one section an offset inside the section before it, at two bytes that
// parse as an empty section: a small varint, then 0. Its neighbours absorb
// the bytes it takes and gives up, so the sections still tile the data
// region, and the misplaced entry fills without error. It returns data
// unchanged when no section holds such a pair.
func MisplacedIndex(data []byte) []byte {
	return rewriteIndex(data, func(_ *int64, index []indexEntry) {
		for i := 1; i+1 < len(index); i++ {
			prev, cur, next := &index[i-1], &index[i], &index[i+1]
			for p := cur.off - 2; p > prev.off; p-- {
				if data[p] < 0x80 && data[p+1] == 0 {
					end := next.off + next.len
					*next = indexEntry{tid: next.tid, off: p + 2, len: end - p - 2,
						nrec: cur.nrec + next.nrec, nmem: cur.nmem + next.nmem, nlock: cur.nlock + next.nlock}
					*cur = indexEntry{tid: int(data[p]), off: p, len: 2}
					prev.len = p - prev.off
					return
				}
			}
		}
	})
}
