package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/core/abc"
)

// txHeader is the part of a benchmark transaction the checker reads back:
// its sequence number. The rest of the payload is seeded filler.
const txHeader = 8

func txSeq(tx []byte) (uint64, bool) {
	if len(tx) < txHeader {
		return 0, false
	}
	return binary.BigEndian.Uint64(tx), true
}

// commitRecord is one transaction's commit as the slowest party saw it.
type commitRecord struct {
	seq    uint64
	slot   int
	origin int
	at     time.Duration // since the run's epoch
}

// ledgerCheck is the correctness gate of the in-process driver. It is fed
// every party's slot deliveries and holds three invariants: each party
// delivers slots in order without gaps, all parties deliver byte-identical
// slots, and every submitted transaction commits exactly once. A slot counts
// as committed when the last of the n parties delivered it, so commit times
// are those of the slowest party. Not safe for concurrent use: the collector
// goroutine owns it.
type ledgerCheck struct {
	n           int
	next        []int                 // per party: next slot index it must deliver
	open        map[int]*openSlot     // slots delivered by some but not all parties
	seen        map[uint64]int        // seq → slots that carried it
	commits     []commitRecord        // in commit order
	slotAt      map[int]time.Duration // slot → commit time at the slowest party
	slotEntries map[int]int           // slot → batch entries it committed
	problems    []string
}

type openSlot struct {
	ref       []abc.Entry
	delivered int
}

func newLedgerCheck(n int) *ledgerCheck {
	return &ledgerCheck{
		n:           n,
		next:        make([]int, n),
		open:        make(map[int]*openSlot),
		seen:        make(map[uint64]int),
		slotAt:      make(map[int]time.Duration),
		slotEntries: make(map[int]int),
	}
}

const maxProblems = 8

func (c *ledgerCheck) problem(format string, args ...any) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// deliver records that party delivered slot with entries at time at.
func (c *ledgerCheck) deliver(party, slot int, at time.Duration, entries []abc.Entry) {
	if slot != c.next[party] {
		c.problem("party %d delivered slot %d, expected %d", party, slot, c.next[party])
	}
	c.next[party] = slot + 1
	os := c.open[slot]
	if os == nil {
		os = &openSlot{ref: entries}
		c.open[slot] = os
	} else if !sameEntries(os.ref, entries) {
		c.problem("slot %d diverged at party %d", slot, party)
	}
	os.delivered++
	if os.delivered < c.n {
		return
	}
	delete(c.open, slot)
	c.slotAt[slot] = at
	c.slotEntries[slot] = len(os.ref)
	for _, e := range os.ref {
		for _, tx := range e.Txs {
			seq, ok := txSeq(tx)
			if !ok {
				c.problem("slot %d carries a malformed transaction", slot)
				continue
			}
			c.seen[seq]++
			c.commits = append(c.commits, commitRecord{seq: seq, slot: slot, origin: e.Origin, at: at})
		}
	}
}

// committed reports how many distinct transactions have committed.
func (c *ledgerCheck) committed() int { return len(c.seen) }

// finish closes the books against the transactions submitted — sent[l] of
// them on lane l, numbered l, l+n, l+2n, … for n lanes — and returns how
// many broke the exactly-once rule.
func (c *ledgerCheck) finish(sent []int) (failed int) {
	n := uint64(len(sent))
	for l, count := range sent {
		for j := 0; j < count; j++ {
			seq := uint64(j)*n + uint64(l)
			if c.seen[seq] == 1 {
				continue
			}
			failed++
			if c.seen[seq] == 0 {
				c.problem("tx %d never committed at every party", seq)
			} else {
				c.problem("tx %d committed %d times", seq, c.seen[seq])
			}
		}
	}
	for seq := range c.seen {
		if seq/n >= uint64(sent[seq%n]) {
			failed++
			c.problem("committed tx %d was never submitted", seq)
		}
	}
	return failed
}

func sameEntries(a, b []abc.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].Origin != b[j].Origin || len(a[j].Txs) != len(b[j].Txs) {
			return false
		}
		for k := range a[j].Txs {
			if !bytes.Equal(a[j].Txs[k], b[j].Txs[k]) {
				return false
			}
		}
	}
	return true
}
