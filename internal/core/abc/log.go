package abc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
)

// SetDigest is the order-insensitive digest of a transaction multiset: the
// sum of sha256(tx) over its members as 256-bit big-endian integers, mod
// 2²⁵⁶. The digest of a union is the sum of the digests, so conservation —
// committed ⊎ handed back = submitted — is one addition.
type SetDigest [sha256.Size]byte

// Add folds tx into the digest.
func (s *SetDigest) Add(tx []byte) { s.plus(sha256.Sum256(tx)) }

// plus is the one definition of the digest's group operation.
func (s *SetDigest) plus(x [sha256.Size]byte) {
	for i, carry := sha256.Size-1, 0; i >= 0; i-- {
		v := int(s[i]) + int(x[i]) + carry
		s[i], carry = byte(v), v>>8
	}
}

func (s SetDigest) String() string { return hex.EncodeToString(s[:]) }

// SumSets adds set digests in String's form.
func SumSets(sets ...string) (string, error) {
	var sum SetDigest
	for _, h := range sets {
		x, err := hex.DecodeString(h)
		if err != nil || len(x) != len(sum) {
			return "", fmt.Errorf("abc: bad set digest %q", h)
		}
		sum.plus(SetDigest(x))
	}
	return sum.String(), nil
}

// Log is one party's ledger log folded into digests and counts. The order
// digest certifies the total order; Set is the committed multiset alone,
// comparable across runs whatever their slot layout. A slow honest party
// can be voted out of the final slots and get its txs back at finish;
// HandBack counts those. Deliver is a DeliverSlot.
type Log struct {
	order    hash.Hash
	Set      SetDigest // committed transactions
	Txs      int
	Bytes    int64
	LeftSet  SetDigest // handed-back transactions
	Leftover int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{order: sha256.New()} }

// Deliver folds one committed slot into the log.
func (l *Log) Deliver(slot int, entries []Entry) {
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], uint64(slot))
	l.order.Write(num[:])
	for _, e := range entries {
		binary.BigEndian.PutUint64(num[:], uint64(e.Origin))
		l.order.Write(num[:])
		for _, tx := range e.Txs {
			binary.BigEndian.PutUint64(num[:], uint64(len(tx)))
			l.order.Write(num[:])
			l.order.Write(tx)
			l.Set.Add(tx)
			l.Txs++
			l.Bytes += int64(len(tx))
		}
	}
}

// HandBack counts transactions returned instead of committed: a party's
// pool at finish (Mempool.Drain).
func (l *Log) HandBack(txs [][]byte) {
	for _, tx := range txs {
		l.LeftSet.Add(tx)
		l.Leftover++
	}
}

// Digest returns the hex order digest.
func (l *Log) Digest() string { return hex.EncodeToString(l.order.Sum(nil)) }
