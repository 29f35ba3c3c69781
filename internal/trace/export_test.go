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
