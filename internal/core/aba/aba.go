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
//	         view₂={v}   → decide v           (coin never consulted)
//	         view₂={v,⊥} → est = v            (coin never consulted)
//	         view₂={⊥}   → est = coin(r)
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

// Message tags.
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

type roundState struct {
	// Stage 1 (binary domain).
	est1Sent [2]bool
	est1Recv [2]map[int]bool
	bin1     [2]bool
	aux1Sent bool
	aux1Recv map[int]byte
	proposed bool

	// Stage 2 (ternary domain).
	est2Sent [3]bool
	est2Recv [3]map[int]bool
	bin2     [3]bool
	aux2Sent bool
	aux2Recv map[int]byte

	coinAsked bool
	coinVal   *byte
	resolved  bool
}

func newRoundState() *roundState {
	return &roundState{
		est1Recv: [2]map[int]bool{make(map[int]bool), make(map[int]bool)},
		aux1Recv: make(map[int]byte),
		est2Recv: [3]map[int]bool{make(map[int]bool), make(map[int]bool), make(map[int]bool)},
		aux2Recv: make(map[int]byte),
	}
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
	a.sendEST1(1, a.est)
	// Messages for round 1 may have fully arrived before activation (the
	// tryPropose/tryCoin guards drop them while !started); re-evaluate now or
	// an adversarial schedule that front-loads round 1 stalls the instance.
	a.tryPropose(1)
	a.tryCoin(1)
}

// Decided returns the decided bit, if any (set at decision, before halting).
func (a *ABA) Decided() (byte, bool) {
	if a.decided == nil {
		return 0, false
	}
	return *a.decided, true
}

func (a *ABA) state(r int) *roundState {
	st := a.rounds[r]
	if st == nil {
		st = newRoundState()
		a.rounds[r] = st
	}
	return st
}

func (a *ABA) sendEST1(r int, v byte) {
	st := a.state(r)
	if st.est1Sent[v] {
		return
	}
	st.est1Sent[v] = true
	var w wire.Writer
	w.Byte(msgEST1)
	w.Int(r)
	w.Byte(v)
	a.rt.Multicast(a.inst, w.Bytes())
}

func (a *ABA) sendEST2(r int, v byte) {
	st := a.state(r)
	if st.est2Sent[v] {
		return
	}
	st.est2Sent[v] = true
	var w wire.Writer
	w.Byte(msgEST2)
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
		if rd.Done() != nil || r < 1 || r > maxRounds {
			a.rt.Reject()
			return
		}
		a.onRoundMsg(tag, r, v, from)
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

func (a *ABA) onRoundMsg(tag byte, r int, v byte, from int) {
	st := a.state(r)
	switch tag {
	case msgEST1:
		if v > 1 {
			a.rt.Reject()
			return
		}
		if st.est1Recv[v][from] {
			return
		}
		st.est1Recv[v][from] = true
		if len(st.est1Recv[v]) >= a.rt.F()+1 {
			a.sendEST1(r, v)
		}
		if len(st.est1Recv[v]) >= 2*a.rt.F()+1 && !st.bin1[v] {
			st.bin1[v] = true
			if !st.aux1Sent {
				st.aux1Sent = true
				var w wire.Writer
				w.Byte(msgAUX1)
				w.Int(r)
				w.Byte(v)
				a.rt.Multicast(a.inst, w.Bytes())
			}
			a.tryPropose(r)
			a.tryCoin(r)
		}
	case msgAUX1:
		if v > 1 {
			a.rt.Reject()
			return
		}
		if pv, dup := st.aux1Recv[from]; dup {
			// Honest parties send AUX1 at most once per round; a second
			// copy with a different value is proof of a double vote.
			if pv != v {
				a.rt.Equivocation()
			}
			return
		}
		st.aux1Recv[from] = v
		a.tryPropose(r)
	case msgEST2:
		if v > 2 {
			a.rt.Reject()
			return
		}
		if st.est2Recv[v][from] {
			return
		}
		st.est2Recv[v][from] = true
		if len(st.est2Recv[v]) >= a.rt.F()+1 {
			a.sendEST2(r, v)
		}
		if len(st.est2Recv[v]) >= 2*a.rt.F()+1 && !st.bin2[v] {
			st.bin2[v] = true
			if !st.aux2Sent {
				st.aux2Sent = true
				var w wire.Writer
				w.Byte(msgAUX2)
				w.Int(r)
				w.Byte(v)
				a.rt.Multicast(a.inst, w.Bytes())
			}
			a.tryCoin(r)
		}
	case msgAUX2:
		if v > 2 {
			a.rt.Reject()
			return
		}
		if pv, dup := st.aux2Recv[from]; dup {
			if pv != v {
				a.rt.Equivocation()
			}
			return
		}
		st.aux2Recv[from] = v
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
	if st.proposed || (!st.bin1[0] && !st.bin1[1]) {
		return
	}
	var have [2]bool
	inBin := 0
	for _, v := range st.aux1Recv {
		if v <= 1 && st.bin1[v] {
			inBin++
			have[v] = true
		}
	}
	if inBin < a.rt.N()-a.rt.F() {
		return
	}
	st.proposed = true
	switch {
	case have[0] && have[1]:
		a.sendEST2(r, bot)
	case have[1]:
		a.sendEST2(r, 1)
	default:
		a.sendEST2(r, 0)
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
	if !st.bin2[0] && !st.bin2[1] && !st.bin2[bot] {
		return
	}
	inBin := 0
	for _, v := range st.aux2Recv {
		if v <= 2 && st.bin2[v] {
			inBin++
		}
	}
	if inBin < a.rt.N()-a.rt.F() {
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

	var seen [3]bool
	for _, v := range st.aux2Recv {
		if v <= 2 && st.bin2[v] {
			seen[v] = true
		}
	}
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
		a.sendEST1(a.round, a.est)
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
