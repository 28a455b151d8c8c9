package vba

import (
	"bytes"
	"testing"
)

// FuzzDecodePBSend: a body DecodePBSend accepts re-encodes to itself, so a
// PBSend has one encoding. The committed corpus holds the honest bodies of
// every stage (recorded from an n = 4 run, the traffic TestCodecsAreTheFormat
// checks) and a stage-1 body whose key-flag byte is 0x30, which once decoded
// as true and re-encoded as 0x01.
func FuzzDecodePBSend(f *testing.F) {
	f.Add((&PBSend{View: 1, Stage: 1, Value: []byte("ok:p0")}).Bytes())
	f.Fuzz(func(t *testing.T, body []byte) {
		if m, ok := DecodePBSend(body, 4); ok && !bytes.Equal(m.Bytes(), body) {
			t.Fatalf("%x decodes and re-encodes as %x", body, m.Bytes())
		}
	})
}
