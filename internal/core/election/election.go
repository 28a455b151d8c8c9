// Package election implements the paper's random leader election with
// perfect agreement (§7.1, Alg. 5): the Coin machinery produces each
// party's speculative largest VRF; parties reliably broadcast those
// speculative winners, vote through one ABA on whether a "largest and
// majority" VRF exists among n−f broadcast outputs, and either adopt the
// unique such VRF (ABA=1) or a default leader (ABA=0).
//
// The result is an (n, f, 2f+1, 1/3)-Election: agreement always holds
// (Theorem 5), the adversary predicts the leader with probability at most
// 1−α+α/n, and the costs stay at expected O(n³) messages, O(λn³) bits and
// O(1) rounds — making the primitive pluggable into every VBA construction
// that previously needed a threshold-PRF leader election with private setup.
package election

import (
	"math/big"
	"strconv"

	"repro/internal/core/aba"
	"repro/internal/core/coin"
	"repro/internal/core/rbc"
	"repro/internal/core/seeding"
	"repro/internal/crypto/vrf"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
)

// Result is the election outcome.
type Result struct {
	Leader    int             // 0-based elected leader index
	ByDefault bool            // true when ABA voted 0 and the default leader was used
	Winner    *coin.Candidate // the agreed largest-and-majority VRF (nil when ByDefault)
}

// Config tunes the embedded Coin (and the ABA's round coins).
type Config struct {
	Coin coin.Config
}

// Output delivers the election result exactly once.
type Output func(Result)

// Election is one leader-election instance on one node.
type Election struct {
	rt   proto.Runtime
	inst string
	out  Output

	coin *coin.Coin
	rbcs []*rbc.RBC
	aba  *aba.ABA

	g        map[int]*coin.Candidate // G: RBC slot -> validated speculative max
	bots     map[int]bool            // RBC slots that delivered ⊥ (zero-ballot votes)
	pend     map[int]*coin.Candidate // RBC outputs waiting for the leader's seed
	ballot   *byte
	abaOut   *byte
	done     bool
	haveVMax bool
}

// New registers an Election instance and its sub-protocols. Call Start.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, cfg Config, out Output) *Election {
	e := &Election{
		rt:   rt,
		inst: inst,
		out:  out,
		g:    make(map[int]*coin.Candidate),
		bots: make(map[int]bool),
		pend: make(map[int]*coin.Candidate),
	}
	e.coin = coin.New(rt, inst+"/c", keys, cfg.Coin, e.onCoin)
	e.coin.OnSeed(e.onSeed)
	e.rbcs = make([]*rbc.RBC, rt.N())
	for j := 0; j < rt.N(); j++ {
		j := j
		e.rbcs[j] = rbc.New(rt, inst+"/b/"+strconv.Itoa(j), j, func(v []byte) { e.onRBC(j, v) })
	}
	coins := aba.PaperCoins(rt, inst+"/a/c", keys, cfg.Coin)
	e.aba = aba.New(rt, inst+"/a", coins, e.onABA)
	return e
}

// Start activates the instance (Alg. 5 lines 1–2).
func (e *Election) Start() { e.coin.Start() }

// ForceCoinResult feeds a coin outcome directly into Alg. 5 line 3,
// pre-empting the embedded Coin — a fault-injection hook for adversarial
// harnesses modeling corruption beyond what honest coin runs can produce
// (e.g. every party's speculative max forced to ⊥). The RBC and ABA
// sub-protocols still run for real. Calling Start afterwards is allowed:
// the coin then still runs (distributing seeds, which validation of other
// parties' broadcasts needs) but its genuine outcome is ignored.
func (e *Election) ForceCoinResult(r coin.Result) { e.onCoin(r) }

// onCoin is Alg. 5 lines 3–4: commit the speculative largest VRF via RBC.
func (e *Election) onCoin(res coin.Result) {
	if e.haveVMax {
		return
	}
	e.haveVMax = true
	e.rbcs[e.rt.Self()].Start(res.Max.Bytes())
}

// onRBC is Alg. 5 lines 5–12: validate broadcast VRFs into G and, once
// n−f slots have resolved, vote on whether a largest-and-majority VRF
// exists. A payload that does not decode is rejected at delivery.
func (e *Election) onRBC(j int, v []byte) {
	cand, ok := coin.DecodeCandidate(v, e.rt.N())
	if !ok {
		e.rt.Reject()
		return
	}
	if cand == nil {
		// ⊥ broadcast: never enters G, but it IS one of the n−f outputs
		// Alg. 5 line 8 waits for — a zero-ballot vote. Dropping it
		// entirely would stall the election whenever more than f slots
		// carry ⊥ (all-⊥ speculative maxes under heavy corruption)
		// instead of letting the parties vote 0.
		e.bots[j] = true
		e.maybeVote()
		// A ⊥ vote can also complete a pending winner's (n−f)-subset as a
		// filler slot after ABA already decided 1.
		e.maybeFinish()
		return
	}
	e.accept(j, cand)
}

// onSeed revisits RBC outputs that were waiting for a leader seed.
func (e *Election) onSeed(leader int, _ [seeding.SeedSize]byte) {
	for _, j := range order.SortedKeys(e.pend) {
		if cand := e.pend[j]; cand.Leader == leader {
			delete(e.pend, j)
			e.accept(j, cand)
		}
	}
}

// accept enters a decoded slot into G once its VRF verifies, parking it
// while its leader's seed is unknown (Alg. 5 line 6).
func (e *Election) accept(j int, cand *coin.Candidate) {
	valid, known := e.coin.Verify(cand)
	switch {
	case !known:
		e.pend[j] = cand
	case !valid:
		e.rt.Reject()
	default:
		e.g[j] = cand
		e.maybeVote()
		e.maybeFinish()
	}
}

// maybeVote is Alg. 5 lines 8–12: once n−f slots resolved (validated
// entries plus ⊥ votes), derive the ballot.
func (e *Election) maybeVote() {
	if e.ballot != nil || len(e.g)+len(e.bots) < e.rt.N()-e.rt.F() {
		return
	}
	b := byte(0)
	if e.winnerIn(e.g, len(e.bots)) != nil {
		b = 1
	}
	e.ballot = &b
	e.aba.Start(b)
}

// winnerIn reports the unique largest-and-majority candidate realizable in
// some (n−f)-sized subset of the resolved slots, or nil: a value v
// qualifies when enough copies exist to form a strict majority of n−f
// entries and all remaining slots can be filled with strictly smaller
// values — ⊥ slots (bots) rank below every real VRF, so they only ever
// serve as fillers.
func (e *Election) winnerIn(g map[int]*coin.Candidate, bots int) *coin.Candidate {
	q := e.rt.N() - e.rt.F()
	// Group by VRF value.
	type grp struct {
		ent     *coin.Candidate
		count   int
		smaller int
	}
	groups := make(map[vrf.Output]*grp)
	for _, ent := range g {
		gr := groups[ent.Value]
		if gr == nil {
			gr = &grp{ent: ent}
			groups[ent.Value] = gr
		}
		gr.count++
	}
	// Sorted value order end to end: the winner condition holds for at most
	// one group, but scanning a map would still let replays of the same
	// seed walk candidates in different orders.
	vals := order.SortedKeysFunc(groups, func(a, b vrf.Output) bool { return a.Less(b) })
	for _, v := range vals {
		gr := groups[v]
		for _, w := range vals {
			if w.Less(v) {
				gr.smaller += groups[w].count
			}
		}
	}
	for _, v := range vals {
		gr := groups[v]
		m := gr.count
		if m > q {
			m = q
		}
		if 2*m > q && gr.count+gr.smaller+bots >= q {
			return gr.ent
		}
	}
	return nil
}

// onABA is Alg. 5 lines 13–17.
func (e *Election) onABA(b byte) {
	e.abaOut = &b
	e.maybeFinish()
}

func (e *Election) maybeFinish() {
	if e.done || e.abaOut == nil {
		return
	}
	if *e.abaOut == 0 {
		e.done = true
		e.out(Result{Leader: 0, ByDefault: true})
		return
	}
	win := e.winnerIn(e.g, len(e.bots))
	if win == nil {
		return // keep waiting for G to grow (Alg. 5 line 15)
	}
	e.done = true
	idx := new(big.Int).SetBytes(win.Value[:])
	idx.Mod(idx, big.NewInt(int64(e.rt.N())))
	e.out(Result{Leader: int(idx.Int64()), Winner: win})
}
