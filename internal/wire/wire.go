// Package wire is the deterministic binary codec used by every protocol
// message. All messages are encoded to bytes even for in-process delivery so
// that the simulator's communication-complexity accounting equals what a
// networked deployment would transmit (§3 "Quantitative performance
// metrics").
//
// The encoding is length-prefixed and position-dependent; there is no
// schema. Writers never fail; Readers latch the first error and report it
// from Err/Done, letting decoders be written as straight-line code.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Writer accumulates an encoded message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Bytes returns the encoded message.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uint32 appends a big-endian uint32.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Int appends a non-negative int as uint32. Negative input panics: the
// silent uint32 wrap-around would decode as a huge index on the far side,
// and every caller writes slot/party indexes that are non-negative by
// construction.
func (w *Writer) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("wire: Int(%d) is negative", v))
	}
	w.Uint32(uint32(v))
}

// Uint64 appends a big-endian uint64.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Bytes32 appends exactly 32 bytes (panics otherwise; fixed-size fields are
// always produced by our own crypto encoders).
func (w *Writer) Bytes32(b []byte) {
	if len(b) != 32 {
		panic(fmt.Sprintf("wire: Bytes32 with %d bytes", len(b)))
	}
	w.buf = append(w.buf, b...)
}

// Raw appends bytes with no length prefix (for fixed-size fields).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Blob appends a uint32 length prefix followed by the bytes.
func (w *Writer) Blob(b []byte) {
	w.Uint32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// BitSet appends a set of small non-negative ints as a fixed-width bitmap
// over the universe [0, n).
func (w *Writer) BitSet(set map[int]bool, n int) {
	bm := make([]byte, (n+7)/8)
	for i := range set {
		if i >= 0 && i < n && set[i] {
			bm[i/8] |= 1 << (i % 8)
		}
	}
	w.Raw(bm)
}

// ErrShort is returned when a reader runs past the end of the message.
var ErrShort = errors.New("wire: message too short")

// Reader decodes an encoded message with error latching.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps an encoded message.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns nil iff decoding consumed the message exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = ErrShort
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean; any byte but 0 and 1 latches an error, so a flag
// has one encoding.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 && r.err == nil {
		r.err = fmt.Errorf("wire: flag byte %#x is not 0 or 1", b)
	}
	return b == 1
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Int reads a uint32 as int.
func (r *Reader) Int() int { return int(r.Uint32()) }

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Raw reads exactly n bytes.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Bytes32 reads exactly 32 bytes.
func (r *Reader) Bytes32() []byte { return r.take(32) }

// Blob reads a uint32-length-prefixed byte string, enforcing a sanity cap.
func (r *Reader) Blob() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if n > 1<<24 {
		r.err = fmt.Errorf("wire: blob length %d exceeds cap", n)
		return nil
	}
	return r.take(int(n))
}

// BitSet reads a bitmap over [0, n) written by Writer.BitSet.
func (r *Reader) BitSet(n int) map[int]bool {
	bm := r.take((n + 7) / 8)
	if bm == nil {
		return nil
	}
	out := make(map[int]bool)
	for i := 0; i < n; i++ {
		if bm[i/8]&(1<<(i%8)) != 0 {
			out[i] = true
		}
	}
	return out
}
