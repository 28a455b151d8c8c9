package wire

import (
	"bytes"
	"testing"
)

func TestRoundTripAllTypes(t *testing.T) {
	var w Writer
	w.Byte(7)
	w.Bool(true)
	w.Bool(false)
	w.Uint32(0xDEADBEEF)
	w.Int(42)
	w.Uint64(1 << 40)
	w.Blob([]byte("hello"))
	w.Raw([]byte{1, 2, 3})
	buf32 := make([]byte, 32)
	buf32[31] = 9
	w.Bytes32(buf32)

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := r.Uint32(); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %x", got)
	}
	if got := r.Int(); got != 42 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Uint64(); got != 1<<40 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := r.Blob(); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Blob = %q", got)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, buf32) {
		t.Fatal("Bytes32 mismatch")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderLatchesError(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.Uint32() // too short
	if r.Err() == nil {
		t.Fatal("no error after short read")
	}
	// Subsequent reads keep failing without panicking.
	_ = r.Byte()
	_ = r.Blob()
	if r.Done() == nil {
		t.Fatal("Done succeeded after error")
	}
}

func TestDoneRejectsTrailing(t *testing.T) {
	var w Writer
	w.Byte(1)
	w.Byte(2)
	r := NewReader(w.Bytes())
	_ = r.Byte()
	if r.Done() == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

func TestBlobCapRejectsHugeLength(t *testing.T) {
	var w Writer
	w.Uint32(1 << 30) // claimed length far beyond actual
	r := NewReader(w.Bytes())
	if r.Blob() != nil || r.Err() == nil {
		t.Fatal("huge blob length accepted")
	}
}

func TestBitSetRoundTrip(t *testing.T) {
	set := map[int]bool{0: true, 3: true, 9: true, 12: true}
	var w Writer
	w.BitSet(set, 13)
	r := NewReader(w.Bytes())
	got := r.BitSet(13)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(set) {
		t.Fatalf("got %v", got)
	}
	for k := range set {
		if !got[k] {
			t.Fatalf("missing %d", k)
		}
	}
}

func TestBitSetIgnoresOutOfRange(t *testing.T) {
	set := map[int]bool{-1: true, 99: true, 2: true}
	var w Writer
	w.BitSet(set, 8)
	r := NewReader(w.Bytes())
	got := r.BitSet(8)
	if len(got) != 1 || !got[2] {
		t.Fatalf("got %v, want {2}", got)
	}
}

func TestBytes32Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes32 did not panic on wrong length")
		}
	}()
	var w Writer
	w.Bytes32([]byte{1, 2})
}

func TestIntPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int did not panic on negative input")
		}
	}()
	var w Writer
	w.Int(-1)
}

func TestBoolRejectsOtherBytes(t *testing.T) {
	for _, b := range []byte{2, 0x30, 0xff} {
		r := NewReader([]byte{b})
		if r.Bool() || r.Err() == nil {
			t.Fatalf("flag byte %#x decoded without an error", b)
		}
	}
}
