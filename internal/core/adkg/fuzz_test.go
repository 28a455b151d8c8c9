package adkg

import (
	"bytes"
	"testing"
)

// FuzzDecodeContribution: a body DecodeContribution accepts (at n = 4,
// f = 1) re-encodes to itself, so a Contribution has one encoding. The
// committed corpus holds an honest contribution recorded from an n = 4 run
// (the traffic TestCodecsAreTheFormat checks).
func FuzzDecodeContribution(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if s, ok := DecodeContribution(body, 4, 1); ok && !bytes.Equal(EncodeContribution(s), body) {
			t.Fatalf("%x decodes and re-encodes as %x", body, EncodeContribution(s))
		}
	})
}
