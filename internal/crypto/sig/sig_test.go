package sig

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSignVerify(t *testing.T) {
	r := testRand(1)
	sk, err := GenerateKey(r)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("attack at dawn")
	s := sk.Sign(msg)
	if !Verify(sk.PK, msg, s) {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	r := testRand(2)
	sk, _ := GenerateKey(r)
	s := sk.Sign([]byte("m1"))
	if Verify(sk.PK, []byte("m2"), s) {
		t.Fatal("signature verified for different message")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	r := testRand(3)
	sk1, _ := GenerateKey(r)
	sk2, _ := GenerateKey(r)
	s := sk1.Sign([]byte("m"))
	if Verify(sk2.PK, []byte("m"), s) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestVerifyRejectsMangledSignature(t *testing.T) {
	r := testRand(4)
	sk, _ := GenerateKey(r)
	s := sk.Sign([]byte("m"))
	s.S = s.S.Add(s.C) // arbitrary corruption
	if Verify(sk.PK, []byte("m"), s) {
		t.Fatal("mangled signature verified")
	}
}

func TestSignatureBytesRoundTrip(t *testing.T) {
	r := testRand(5)
	sk, _ := GenerateKey(r)
	s := sk.Sign([]byte("round trip"))
	b := s.Bytes()
	if len(b) != Size {
		t.Fatalf("encoded size %d, want %d", len(b), Size)
	}
	got, err := SignatureFromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(sk.PK, []byte("round trip"), got) {
		t.Fatal("decoded signature invalid")
	}
	if _, err := SignatureFromBytes(b[:10]); err == nil {
		t.Fatal("accepted truncated signature")
	}
}

func TestDeterministicSigning(t *testing.T) {
	r := testRand(6)
	sk, _ := GenerateKey(r)
	a := sk.Sign([]byte("x"))
	b := sk.Sign([]byte("x"))
	if !a.C.Equal(b.C) || !a.S.Equal(b.S) {
		t.Fatal("signing is not deterministic")
	}
}

func TestQuorumCollectsDistinctSorted(t *testing.T) {
	r := testRand(7)
	msg := []byte("quorum msg")
	const n = 7
	var q Quorum
	order := []int{4, 1, 6, 1, 3, 4, 0}
	sks := make([]PrivateKey, n)
	for i := 0; i < n; i++ {
		sks[i], _ = GenerateKey(r)
	}
	for _, i := range order {
		q.Add(i, sks[i].Sign(msg))
	}
	if q.Len() != 5 {
		t.Fatalf("quorum size %d, want 5 (duplicates ignored)", q.Len())
	}
	for i := 1; i < len(q.Indices); i++ {
		if q.Indices[i-1] >= q.Indices[i] {
			t.Fatal("indices not strictly increasing")
		}
	}
	for i, idx := range q.Indices {
		if !Verify(sks[idx].PK, msg, q.Sigs[i]) {
			t.Fatalf("signature at index %d moved away from its signer", idx)
		}
	}
	if !q.Has(4) || q.Has(2) {
		t.Fatalf("Has(4)=%v Has(2)=%v, want true false", q.Has(4), q.Has(2))
	}
	var w wire.Writer
	q.Encode(&w)
	got, ok := DecodeQuorum(wire.NewReader(w.Bytes()), n)
	if !ok || !slices.Equal(got.Indices, q.Indices) {
		t.Fatalf("quorum round trip: ok=%v indices %v, want %v", ok, got.Indices, q.Indices)
	}
}

// TestDigestMatchesHandWritten pins Digest to the hash each protocol used
// to spell out, so signatures made before it still verify.
func TestDigestMatchesHandWritten(t *testing.T) {
	old := func(domain, inst string, parts ...[]byte) []byte {
		b := []byte(domain + inst)
		for _, p := range parts {
			b = append(b, p...)
		}
		h := sha256.Sum256(b)
		return h[:]
	}
	body := []byte("commitment bytes")
	meta := []byte{0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3}
	vh := sha256.Sum256([]byte("value"))
	cases := []struct {
		domain string
		parts  [][]byte
	}{
		{"avss/stored", [][]byte{body}},
		{"seeding/stored", [][]byte{body}},
		{"wcs/confirm", [][]byte{body}},
		{"vba/ack", [][]byte{meta, vh[:]}},
	}
	seen := map[string]string{}
	for _, c := range cases {
		got := Digest(c.domain, "inst/7", c.parts...)
		if want := old(c.domain, "inst/7", c.parts...); !bytes.Equal(got, want) {
			t.Fatalf("%s: Digest %x, hand-written %x", c.domain, got, want)
		}
		if prev, dup := seen[string(got)]; dup {
			t.Fatalf("domains %s and %s share a digest", prev, c.domain)
		}
		seen[string(got)] = c.domain
	}
	if bytes.Equal(Digest("avss/stored", "a", body), Digest("avss/stored", "b", body)) {
		t.Fatal("digest ignores the instance")
	}
}
