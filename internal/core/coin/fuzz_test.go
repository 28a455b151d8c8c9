package coin

import (
	"bytes"
	"testing"
)

// FuzzDecodeCandidate: a body DecodeCandidate accepts re-encodes to itself,
// so a Candidate has one encoding. The committed corpus holds an honest
// candidate recorded from an n = 4 run (the traffic TestCodecsAreTheFormat
// checks); ⊥ is added here.
func FuzzDecodeCandidate(f *testing.F) {
	f.Add((*Candidate)(nil).Bytes())
	f.Fuzz(func(t *testing.T, body []byte) {
		if c, ok := DecodeCandidate(body, 4); ok && !bytes.Equal(c.Bytes(), body) {
			t.Fatalf("%x decodes and re-encodes as %x", body, c.Bytes())
		}
	})
}
