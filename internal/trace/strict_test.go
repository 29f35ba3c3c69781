package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestDecodeStrict: the strict ingestion decoder accepts exactly what a
// client can have meant to send — a complete indexed container or a bare
// stream — and rejects containers whose index tail was damaged, which the
// lenient decoders deliberately tolerate.
func TestDecodeStrict(t *testing.T) {
	tr := randomTrace(rand.New(rand.NewSource(7)))
	var v1, v3 bytes.Buffer
	if err := Encode(&v1, tr, 1); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&v3, tr, 3); err != nil {
		t.Fatal(err)
	}

	decode := func(data []byte) (*Trace, error) {
		return DecodeStrict(bytes.NewReader(data), int64(len(data)), 1)
	}

	for name, data := range map[string][]byte{"bare stream": v1.Bytes(), "indexed": v3.Bytes()} {
		got, err := decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: strict decode differs from lenient decode", name)
		}
	}

	full := v3.Bytes()
	for name, data := range map[string][]byte{
		"cut mid-trailer":     full[:len(full)-trailerSize/2],
		"cut mid-footer":      full[:len(full)-trailerSize-4],
		"trailing junk":       append(append([]byte(nil), v1.Bytes()...), 0xde, 0xad),
		"one extra zero byte": append(append([]byte(nil), v1.Bytes()...), 0),
	} {
		// The lenient decoder accepts all of these (the stream itself is
		// intact); strict ingestion must not.
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: lenient decode unexpectedly failed: %v", name, err)
		}
		if _, err := decode(data); err == nil {
			t.Fatalf("%s: strict decode accepted %d damaged bytes", name, len(data))
		}
	}
}
