package pki

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/crypto/sig"
)

// plainQuorum is the quorum check without a book: threshold, distinct
// in-range signers, then one sig.Verify per member.
func plainQuorum(b *Board, msg []byte, q *sig.Quorum, threshold int) bool {
	if q == nil || q.Len() < threshold || len(q.Sigs) != len(q.Indices) {
		return false
	}
	seen := make(map[int]bool, q.Len())
	for i, idx := range q.Indices {
		if idx < 0 || idx >= b.N() || seen[idx] {
			return false
		}
		seen[idx] = true
		if !sig.Verify(b.Parties[idx].Sig, msg, q.Sigs[i]) {
			return false
		}
	}
	return true
}

func bookRings(t *testing.T, n int) []*Keyring {
	t.Helper()
	rings, _, err := SetupSeeded(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rings
}

// quorumOf builds a quorum from (index, signature) pairs in the order
// given, without Quorum.Add's sorting and dedup, as a decoder-bypassing
// adversary could hand it over.
func quorumOf(pairs ...any) *sig.Quorum {
	q := &sig.Quorum{}
	for i := 0; i < len(pairs); i += 2 {
		q.Indices = append(q.Indices, pairs[i].(int))
		q.Sigs = append(q.Sigs, pairs[i+1].(sig.Signature))
	}
	return q
}

// TestBookMatchesPlainVerify is the book's differential soundness test:
// over honest and mauled quorums its verdict equals plain verification,
// whether the book is cold, warm, or has dropped its entries at the cap.
func TestBookMatchesPlainVerify(t *testing.T) {
	const n, th = 4, 3
	rings := bookRings(t, n)
	board := rings[0].Board
	msg, other := []byte("quorum msg"), []byte("other msg")
	s := make([]sig.Signature, n)
	for i := range s {
		s[i] = rings[i].Sig.Sign(msg)
	}
	cases := []struct {
		name string
		q    *sig.Quorum
		th   int
	}{
		{"honest", quorumOf(0, s[0], 1, s[1], 2, s[2]), th},
		{"honest, all n", quorumOf(0, s[0], 1, s[1], 2, s[2], 3, s[3]), th},
		{"signature at another signer's index", quorumOf(0, s[0], 1, s[2], 2, s[2]), th},
		{"signature on another message", quorumOf(0, s[0], 1, rings[1].Sig.Sign(other), 2, s[2]), th},
		{"two signatures swapped", quorumOf(0, s[0], 1, s[2], 2, s[1]), th},
		{"duplicate index", quorumOf(0, s[0], 0, s[0], 1, s[1]), th},
		{"descending indices", quorumOf(2, s[2], 1, s[1], 0, s[0]), th},
		{"below threshold", quorumOf(0, s[0], 1, s[1]), th},
		{"out-of-range signer", quorumOf(0, s[0], 1, s[1], n, s[2]), th},
		{"length mismatch", &sig.Quorum{Indices: []int{0, 1, 2}, Sigs: s[:2]}, th},
		{"nil", nil, 0},
	}
	check := func(leg string, k *Keyring) {
		for _, c := range cases {
			if got, want := k.VerifyQuorum(msg, c.q, c.th), plainQuorum(board, msg, c.q, c.th); got != want {
				t.Fatalf("%s, %s: book says %v, plain verification %v", leg, c.name, got, want)
			}
		}
	}
	k := rings[0]
	check("cold", k)
	cold := k.SigVerifies()
	check("warm", k)
	// Warm, only the mauled members are verified again: every valid
	// (signer, msg, signature) triple was recorded on the cold pass.
	if again := k.SigVerifies() - cold; again != 3 {
		t.Fatalf("warm pass verified %d signatures, want 3 (the three bad members)", again)
	}
	for i := 0; i < bookCap; i++ {
		k.book.memo.Put(bookKey{signer: -1 - i}, struct{}{})
	}
	before := k.SigVerifies()
	check("after the cap dropped the book", k)
	if k.SigVerifies() == before {
		t.Fatal("the book still answered after it dropped every entry at the cap")
	}
}

// TestBookCountsOwnAndCheckedSignatures pins what the book saves: a
// party's own signature and a signature it already verified cost no
// verification, and nothing is shared with another party's book.
func TestBookCountsOwnAndCheckedSignatures(t *testing.T) {
	rings := bookRings(t, 4)
	msg := []byte("m")
	own := rings[0].Sign(msg)
	var q sig.Quorum
	q.Add(0, own)
	if !rings[0].Collect(&q, 1, msg, rings[1].Sign(msg).Bytes()) {
		t.Fatal("valid signature refused")
	}
	q.Add(2, rings[2].Sign(msg))
	if !rings[0].VerifyQuorum(msg, &q, 3) {
		t.Fatal("valid quorum rejected")
	}
	if got := rings[0].SigVerifies(); got != 2 {
		t.Fatalf("party 0 verified %d signatures, want 2 (party 1's once, party 2's once; its own never)", got)
	}
	if !rings[3].VerifyQuorum(msg, &q, 3) || rings[3].SigVerifies() != 3 {
		t.Fatalf("party 3 verified %d signatures, want 3: books are per party", rings[3].SigVerifies())
	}
}

// TestBookBadSignatureEveryTime pins that there is no negative caching: a
// bad signature sent twice is verified, and rejected, both times.
func TestBookBadSignatureEveryTime(t *testing.T) {
	rings := bookRings(t, 4)
	msg := []byte("m")
	bad := rings[1].Sig.Sign([]byte("other")).Bytes()
	var q sig.Quorum
	for try := 1; try <= 2; try++ {
		if rings[0].Collect(&q, 1, msg, bad) {
			t.Fatalf("try %d: bad signature accepted", try)
		}
		if got := rings[0].SigVerifies(); got != int64(try) {
			t.Fatalf("try %d: %d verifications, want %d", try, got, try)
		}
	}
	if q.Len() != 0 {
		t.Fatal("a bad signature was added")
	}
}

// TestBookConcurrent checks one quorum from several goroutines at once, as
// a live party's dispatchers may: every check passes, and the book's
// single flight verifies each member once.
func TestBookConcurrent(t *testing.T) {
	rings := bookRings(t, 4)
	msg := []byte("m")
	var q sig.Quorum
	for i := 0; i < 3; i++ {
		q.Add(i, rings[i].Sig.Sign(msg))
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !rings[3].VerifyQuorum(msg, &q, 3) {
				t.Error("valid quorum rejected")
			}
			rings[3].Sign(msg)
		}()
	}
	wg.Wait()
	if got := rings[3].SigVerifies(); got != 3 {
		t.Fatalf("%d verifications, want 3: one per member", got)
	}
}

func TestBookCollect(t *testing.T) {
	rings := bookRings(t, 2)
	msg := []byte("collect")
	good := rings[0].Sig.Sign(msg).Bytes()
	var q sig.Quorum
	for _, c := range []struct {
		name string
		from int
		raw  []byte
	}{
		{"truncated", 0, good[:sig.Size-1]},
		{"non-canonical scalar", 0, bytes.Repeat([]byte{0xff}, sig.Size)},
		{"wrong signer", 1, good},
		{"wrong message", 0, rings[0].Sig.Sign([]byte("other")).Bytes()},
	} {
		if rings[1].Collect(&q, c.from, msg, c.raw) {
			t.Fatalf("%s: Collect accepted the signature", c.name)
		}
		if q.Len() != 0 || q.Has(c.from) {
			t.Fatalf("%s: Collect added an invalid signature", c.name)
		}
	}
	if !rings[1].Collect(&q, 0, msg, good) || !rings[1].Collect(&q, 0, msg, good) {
		t.Fatal("Collect refused a valid signature")
	}
	if q.Len() != 1 {
		t.Fatalf("a repeated index counted %d times", q.Len())
	}
	if !q.Has(0) || q.Has(1) {
		t.Fatalf("Has(0)=%v Has(1)=%v, want true false", q.Has(0), q.Has(1))
	}
	if !rings[1].VerifyQuorum(msg, &q, 1) {
		t.Fatal("collected quorum does not verify")
	}
}

// BenchmarkVerifyQuorum checks one n−f quorum certificate, cold (the book
// in pass-through, so every member is verified) and from the book (every
// member already recorded).
func BenchmarkVerifyQuorum(b *testing.B) {
	for _, n := range []int{4, 7, 16} {
		rings, _, err := SetupSeeded(n, 1)
		if err != nil {
			b.Fatal(err)
		}
		msg := []byte("bench quorum")
		th := n - (n-1)/3
		var q sig.Quorum
		for i := 0; i < th; i++ {
			q.Add(i, rings[i].Sig.Sign(msg))
		}
		k := rings[n-1] // not a signer: nothing is its own signature
		for _, leg := range []struct {
			name string
			pass bool
		}{{"cold", true}, {"book", false}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, leg.name), func(b *testing.B) {
				k.book.memo.SetPassThrough(leg.pass)
				if !k.VerifyQuorum(msg, &q, th) {
					b.Fatal("valid quorum rejected")
				}
				for b.Loop() {
					if !k.VerifyQuorum(msg, &q, th) {
						b.Fatal("valid quorum rejected")
					}
				}
			})
		}
	}
}
