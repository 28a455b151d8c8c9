// Package aba implements asynchronous binary Byzantine agreement
// (Definition 5, §6.2) parameterized by a common-coin provider. Plugging in
// the paper's Coin (package coin) yields the private-setup-free ABA of
// Theorem 4: expected O(n³) messages, O(λn³) bits, expected constant rounds
// and optimal n/3 resilience.
//
// # Why a two-stage round structure
//
// The paper's Coin is only reasonably fair: with probability 1−α honest
// parties may receive different bits. The classic single-stage MMR round
// (bin-values → AUX → coin) is safe only under a perfect-agreement coin, so
// — exactly as the paper prescribes by citing Crain'20 [23] — each round
// here runs two BV stages:
//
//	stage 1  BV-broadcast(est) → view₁; propose v if view₁={v}, else ⊥
//	stage 2  BV-broadcast(proposal) over {0,1,⊥} → view₂
//	         view₂={v}   → decide v           (coin bit unused)
//	         view₂={v,⊥} → est = v            (coin bit unused)
//	         view₂={⊥}   → est = coin(r)
//
// Both stages are one bv type; only their domains differ. The round's coin
// is started as soon as stage 2 closes and awaited in every round, and
// view₂ is read when it arrives, so every round pays for a coin whose bit
// only view₂={⊥} uses. Flipping it only when the round needs it is
// ROADMAP item 1.
//
// Stage-1 singleton views are unique per round (two n−f AUX quorums share
// an honest sender), so bin-values₂ ⊆ {v,⊥} and a decide forces v into
// every other party's view₂ — the coin only breaks symmetry when nobody
// could have decided, which makes arbitrary (even adversarial) coin
// disagreement harmless to safety and leaves α to govern only the expected
// round count (≈ 2/α).
//
// A FINISH gadget lets parties halt: deciders keep participating until
// 2f+1 FINISH votes accumulate, preserving liveness for lagging parties.
// FINISH is the READY of rbc.Bracha keyed by the bit: f+1 votes make a
// party relay FINISH, 2f+1 halt it.
package aba

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/core/coin"
	"repro/internal/core/rbc"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// CoinFactory builds the common coin for one ABA round. Implementations
// must call out exactly once per party.
type CoinFactory func(round int, out func(bit byte)) (start func())

// PaperCoins returns a CoinFactory backed by the paper's Coin protocol
// (Alg. 4), one instance per round under the given instance prefix.
func PaperCoins(rt proto.Runtime, prefix string, keys *pki.Keyring, cfg coin.Config) CoinFactory {
	return func(round int, out func(byte)) func() {
		c := coin.New(rt, fmt.Sprintf("%s/r%d", prefix, round), keys, cfg, func(r coin.Result) {
			out(r.Bit)
		})
		return c.Start
	}
}

// TestCoins returns a free, perfect, deterministic common coin — the same
// pseudorandom bit at every party — for exercising the agreement logic in
// isolation (the "costless coin" of the paper's complexity discussion).
func TestCoins(sessionSeed string) CoinFactory {
	return func(round int, out func(byte)) func() {
		return func() {
			h := sha256.Sum256([]byte(fmt.Sprintf("testcoin/%s/%d", sessionSeed, round)))
			out(h[0] & 1)
		}
	}
}

// AdversarialCoins returns a worst-case coin for safety testing: each party
// receives an independent pseudorandom bit (maximal disagreement). Safety
// must hold even under it; termination degrades gracefully.
func AdversarialCoins(sessionSeed string, self int) CoinFactory {
	return func(round int, out func(byte)) func() {
		return func() {
			h := sha256.Sum256([]byte(fmt.Sprintf("advcoin/%s/%d/%d", sessionSeed, round, self)))
			out(h[0] & 1)
		}
	}
}

// Message tags. Stage s ∈ {0, 1} of a round sends EST as msgEST1+2s and
// AUX as msgAUX1+2s.
const (
	msgEST1 byte = iota + 1
	msgAUX1
	msgEST2
	msgAUX2
	msgFINISH
)

// bot is the ⊥ proposal in stage 2's {0,1,⊥} domain.
const bot byte = 2

const maxRounds = 512 // circuit breaker; expected rounds is O(1)

// Output delivers the decided bit (once, at halting).
type Output func(bit byte)

// bv is one binary-value broadcast stage of a round — the BV-broadcast and
// AUX exchange of MMR-style ABA — over the values 0..dom−1. A value sent
// by f+1 distinct parties is relayed, one sent by 2f+1 enters bin_values,
// and the first value to enter is the one AUX this party sends. Each
// sender's first AUX is kept. The owner keeps the wire encoding.
type bv struct {
	dom   byte
	sent  [3]bool         // EST values this party multicast
	ests  [3]map[int]bool // per value, its distinct EST senders
	bin   [3]bool         // bin_values
	auxed bool            // this party's AUX went out
	auxes map[int]byte    // sender -> its first AUX value
}

func newBV(dom byte) bv {
	b := bv{dom: dom, auxes: make(map[int]byte)}
	for v := byte(0); v < dom; v++ {
		b.ests[v] = make(map[int]bool)
	}
	return b
}

// addEST records from's EST of v < dom. relay says whether f+1 distinct
// parties sent v; entered is true once, when 2f+1 did and v joined
// bin_values, and aux then says whether v is the first value to join, the
// one this party's AUX carries.
func (b *bv) addEST(from int, v byte, f int) (relay, entered, aux bool) {
	set := b.ests[v]
	if set[from] {
		return false, false, false
	}
	set[from] = true
	relay = len(set) >= f+1
	if len(set) >= 2*f+1 && !b.bin[v] {
		b.bin[v], entered = true, true
		aux, b.auxed = !b.auxed, true
	}
	return relay, entered, aux
}

// addAUX records from's AUX of v < dom. fresh is true for from's first
// AUX; conflict for a later one carrying another value.
func (b *bv) addAUX(from int, v byte) (fresh, conflict bool) {
	if pv, dup := b.auxes[from]; dup {
		return false, pv != v
	}
	b.auxes[from] = v
	return true, false
}

// view returns the members of bin_values that recorded AUXes carry, and
// whether at least quorum AUXes carry one.
func (b *bv) view(quorum int) (seen [3]bool, closed bool) {
	inBin := 0
	for _, v := range b.auxes {
		if b.bin[v] {
			inBin++
			seen[v] = true
		}
	}
	return seen, inBin >= quorum
}

type roundState struct {
	stage    [2]bv // stage 1 over {0,1}, stage 2 over {0,1,⊥}
	proposed bool

	coinAsked bool
	coinVal   *byte
	resolved  bool
}

// ABA is one binary-agreement instance on one node.
type ABA struct {
	rt    proto.Runtime
	inst  string
	coins CoinFactory
	out   Output

	started bool
	est     byte
	round   int
	rounds  map[int]*roundState

	decided    *byte
	finishSent bool
	finish     rbc.Bracha[byte]
	halted     bool

	// DecidedRound is the round in which this party first decided (0 until
	// then) — used by the round-distribution experiments (E6).
	DecidedRound int
}

// New registers an ABA instance. Call Start with the input bit.
func New(rt proto.Runtime, inst string, coins CoinFactory, out Output) *ABA {
	a := &ABA{
		rt:     rt,
		inst:   inst,
		coins:  coins,
		out:    out,
		rounds: make(map[int]*roundState),
		finish: rbc.NewBracha[byte](rt.F()),
	}
	rt.Register(inst, a)
	return a
}

// Start activates the instance with the party's input bit.
func (a *ABA) Start(input byte) {
	if a.started {
		return
	}
	a.started = true
	a.est = input & 1
	a.round = 1
	a.sendEST(1, 0, a.est)
	// Messages for round 1 may have fully arrived before activation (the
	// tryPropose/tryCoin guards drop them while !started); re-evaluate now or
	// an adversarial schedule that front-loads round 1 stalls the instance.
	a.tryPropose(1)
	a.tryCoin(1)
}

func (a *ABA) state(r int) *roundState {
	st := a.rounds[r]
	if st == nil {
		st = &roundState{stage: [2]bv{newBV(2), newBV(3)}}
		a.rounds[r] = st
	}
	return st
}

// sendEST multicasts this party's EST of v in stage s of round r, once.
func (a *ABA) sendEST(r, s int, v byte) {
	b := &a.state(r).stage[s]
	if !b.sent[v] {
		b.sent[v] = true
		a.multicast(msgEST1+byte(2*s), r, v)
	}
}

func (a *ABA) multicast(tag byte, r int, v byte) {
	var w wire.Writer
	w.Byte(tag)
	w.Int(r)
	w.Byte(v)
	a.rt.Multicast(a.inst, w.Bytes())
}

// Handle implements proto.Handler.
func (a *ABA) Handle(from int, body []byte) {
	if a.halted {
		return
	}
	rd := wire.NewReader(body)
	tag := rd.Byte()
	switch tag {
	case msgEST1, msgAUX1, msgEST2, msgAUX2:
		r := rd.Int()
		v := rd.Byte()
		s := int(tag-msgEST1) / 2
		if rd.Done() != nil || r < 1 || r > maxRounds || v >= a.state(r).stage[s].dom {
			a.rt.Reject()
			return
		}
		if (tag-msgEST1)%2 == 0 {
			a.onEST(r, s, v, from)
		} else {
			a.onAUX(r, s, v, from)
		}
	case msgFINISH:
		v := rd.Byte()
		if rd.Done() != nil || v > 1 {
			a.rt.Reject()
			return
		}
		a.onFinish(v, from)
	default:
		a.rt.Reject()
	}
}

func (a *ABA) onEST(r, s int, v byte, from int) {
	relay, entered, aux := a.state(r).stage[s].addEST(from, v, a.rt.F())
	if relay {
		a.sendEST(r, s, v)
	}
	if !entered {
		return
	}
	if aux {
		a.multicast(msgAUX1+byte(2*s), r, v)
	}
	if s == 0 {
		a.tryPropose(r)
	}
	a.tryCoin(r)
}

func (a *ABA) onAUX(r, s int, v byte, from int) {
	fresh, conflict := a.state(r).stage[s].addAUX(from, v)
	if conflict {
		// Honest parties send one AUX per stage and round; a second copy
		// with a different value is proof of a double vote.
		a.rt.Equivocation()
	}
	if !fresh {
		return
	}
	if s == 0 {
		a.tryPropose(r)
	} else {
		a.tryCoin(r)
	}
}

// tryPropose closes stage 1: once n−f AUX1 values sit inside bin_values₁,
// propose the singleton value or ⊥ into stage 2.
func (a *ABA) tryPropose(r int) {
	if !a.started || r > a.round {
		return
	}
	st := a.state(r)
	if st.proposed {
		return
	}
	seen, closed := st.stage[0].view(a.rt.N() - a.rt.F())
	if !closed {
		return
	}
	st.proposed = true
	switch {
	case seen[0] && seen[1]:
		a.sendEST(r, 1, bot)
	case seen[1]:
		a.sendEST(r, 1, 1)
	default:
		a.sendEST(r, 1, 0)
	}
}

// tryCoin closes stage 2: once n−f AUX2 values sit inside bin_values₂,
// flip the round coin.
func (a *ABA) tryCoin(r int) {
	if !a.started || r != a.round {
		return
	}
	st := a.state(r)
	if st.resolved {
		return
	}
	if st.coinAsked {
		if st.coinVal != nil {
			a.resolveRound(r)
		}
		return
	}
	if _, closed := st.stage[1].view(a.rt.N() - a.rt.F()); !closed {
		return
	}
	st.coinAsked = true
	start := a.coins(r, func(bit byte) {
		st.coinVal = &bit
		a.tryCoin(r)
	})
	start()
}

// resolveRound applies the decision rule on view₂ at coin-arrival time.
func (a *ABA) resolveRound(r int) {
	st := a.state(r)
	if st.resolved || st.coinVal == nil {
		return
	}
	st.resolved = true
	s := *st.coinVal

	seen, _ := st.stage[1].view(0)
	switch {
	case seen[0] && seen[1]:
		// Impossible for honest stage-2 proposals (stage-1 singleton views
		// are unique); defensively adopt the coin and never decide.
		a.est = s
	case seen[0] || seen[1]:
		var v byte
		if seen[1] {
			v = 1
		}
		a.est = v
		if !seen[bot] && a.decided == nil {
			d := v
			a.decided = &d
			a.DecidedRound = r
			a.sendFINISH(v)
		}
	default: // view₂ = {⊥}
		a.est = s
	}
	if r+1 <= maxRounds {
		a.round = r + 1
		a.sendEST(a.round, 0, a.est)
		a.tryPropose(a.round)
		a.tryCoin(a.round)
	}
}

func (a *ABA) onFinish(v byte, from int) {
	if a.finish.Readied(v, from) {
		return
	}
	// Honest parties FINISH exactly one value; a FINISH for the other bit
	// from the same sender is proof of a double vote.
	if a.finish.Readied(1-v, from) {
		a.rt.Equivocation()
		return
	}
	relay, halt := a.finish.Ready(from, v)
	if relay {
		a.sendFINISH(v)
	}
	if halt {
		a.halted = true
		if a.decided == nil {
			d := v
			a.decided = &d
			a.DecidedRound = a.round
		}
		a.out(v)
	}
}

func (a *ABA) sendFINISH(v byte) {
	if a.finishSent {
		return
	}
	a.finishSent = true
	var w wire.Writer
	w.Byte(msgFINISH)
	w.Byte(v)
	a.rt.Multicast(a.inst, w.Bytes())
}
