package core

import (
	"bytes"
	"testing"

	"repro/internal/sgmlconf"
)

// FuzzScenarioCodec keeps the two halves of the Scenario XML codec in
// agreement: whatever sgmlconf accepts, ScenarioFromConfig decodes, and the
// typed scenario re-encodes to a fixpoint — encode, marshal, parse, decode,
// encode and marshal again reproduces the same bytes. The committed seeds
// under testdata/fuzz/FuzzScenarioCodec cover every XML action kind and
// every trigger attribute.
func FuzzScenarioCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := sgmlconf.ParseScenarioConfig(data)
		if err != nil {
			return
		}
		first := encodeDecoded(t, c)
		again, err := sgmlconf.ParseScenarioConfig(first)
		if err != nil {
			t.Fatalf("encoded scenario does not re-parse: %v\n%s", err, first)
		}
		if second := encodeDecoded(t, again); !bytes.Equal(first, second) {
			t.Fatalf("codec is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

// encodeDecoded decodes a parsed config into a typed scenario and renders it
// back to XML; every step must succeed.
func encodeDecoded(t *testing.T, c *sgmlconf.ScenarioConfig) []byte {
	t.Helper()
	sc, err := ScenarioFromConfig(c)
	if err != nil {
		t.Fatalf("parsed scenario does not decode: %v", err)
	}
	enc, err := ScenarioToConfig(sc)
	if err != nil {
		t.Fatalf("decoded scenario does not encode: %v", err)
	}
	out, err := sgmlconf.MarshalScenarioConfig(enc)
	if err != nil {
		t.Fatalf("encoded scenario does not marshal: %v", err)
	}
	return out
}
