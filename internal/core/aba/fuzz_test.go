package aba

import (
	"bytes"
	"testing"
)

// FuzzDecodeMsg: a body DecodeMsg accepts re-encodes to itself, so a Msg
// has one encoding. The committed corpus holds the honest EST, AUX and
// FINISH bodies of both stages, recorded from an n = 4 run (the traffic
// TestCodecsAreTheFormat checks).
func FuzzDecodeMsg(f *testing.F) {
	f.Add(Msg{Round: 1, Stage: 1, Value: bot}.Bytes())
	f.Fuzz(func(t *testing.T, body []byte) {
		if m, ok := DecodeMsg(body); ok && !bytes.Equal(m.Bytes(), body) {
			t.Fatalf("%x decodes and re-encodes as %x", body, m.Bytes())
		}
	})
}
