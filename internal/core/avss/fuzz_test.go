package avss

import (
	"bytes"
	"testing"
)

// FuzzDecodeKeyShare: a body DecodeKeyShare accepts re-encodes to itself,
// so a KeyShare has one encoding. The committed corpus holds an honest key
// share recorded from an n = 4 coin run (the traffic TestCodecsAreTheFormat
// checks).
func FuzzDecodeKeyShare(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if k, ok := DecodeKeyShare(body); ok && !bytes.Equal(k.Bytes(), body) {
			t.Fatalf("%x decodes and re-encodes as %x", body, k.Bytes())
		}
	})
}
