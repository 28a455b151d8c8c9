// Package coin implements the paper's reasonably fair common coin (§6,
// Alg. 4): an (n, f, 2f+1, 1/3)-Coin with only bulletin PKI, O(n³) messages,
// O(λn³) bits and constant asynchronous rounds.
//
// Structure (Fig. 2): every party evaluates its VRF on an unpredictable
// nonce from its own Seeding instance and confidentially shares the
// evaluation via AVSS; a weak core-set selection fixes an (n−f)-core of
// completed sharings; the core is reconstructed; each party multicasts the
// largest valid VRF it saw (Candidate); with probability ≥ 1/3 the globally
// largest VRF is honest and inside the core, making the output bit common
// and unpredictable.
//
// The same machine serves the Election protocol (Alg. 5), which consumes
// the speculative largest VRF (Result.Max) instead of the bit.
//
// When Config.GenesisNonce is set, Seeding is skipped and every VRF is
// evaluated on the genesis nonce — the paper's adaptively secure variant
// under a one-time common random string (Alg. 4 line 3 footnote, §6
// "Remark on static security", Table 1 last row).
package coin

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/core/avss"
	"repro/internal/core/seeding"
	"repro/internal/core/wcs"
	"repro/internal/crypto/vrf"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Candidate is a (leader, VRF evaluation, proof) triple.
type Candidate struct {
	Leader int
	Value  vrf.Output
	Proof  vrf.Proof
}

// Bytes encodes the candidate as a presence flag, then leader, value and
// proof; a nil Candidate encodes ⊥ (the flag alone). The coin multicasts
// this layout (Alg. 4 line 21) and the Election reliably broadcasts it
// (Alg. 5 line 4).
func (c *Candidate) Bytes() []byte {
	var w wire.Writer
	w.Bool(c != nil)
	if c != nil {
		w.Int(c.Leader)
		w.Bytes32(c.Value[:])
		w.Raw(c.Proof.Bytes())
	}
	return w.Bytes()
}

// DecodeCandidate decodes a whole Bytes body for n parties: nil for ⊥.
// ok is false for a leader outside [0, n), a proof that does not decode,
// or a short or over-long body, so only the VRF equation itself is left
// to Verify.
func DecodeCandidate(body []byte, n int) (cand *Candidate, ok bool) {
	rd := wire.NewReader(body)
	if !rd.Bool() {
		return nil, rd.Done() == nil
	}
	cand = &Candidate{Leader: rd.Int()}
	copy(cand.Value[:], rd.Bytes32())
	pb := rd.Raw(vrf.ProofSize)
	if rd.Done() != nil || cand.Leader < 0 || cand.Leader >= n {
		return nil, false
	}
	var err error
	if cand.Proof, err = vrf.ProofFromBytes(pb); err != nil {
		return nil, false
	}
	return cand, true
}

// Result is the coin outcome: the flipped bit, and the speculative largest
// VRF (nil when every counted Candidate was ⊥ — only possible under heavy
// corruption; the bit then defaults to 0).
type Result struct {
	Bit byte
	Max *Candidate
}

// Config tunes a Coin instance.
type Config struct {
	// GenesisNonce, when non-nil, replaces on-the-fly Seeding with a fixed
	// nonce published after PKI registration (the "1-time rnd" setup row of
	// Table 1).
	GenesisNonce []byte
}

// Coin is one common-coin instance on one node.
type Coin struct {
	rt   proto.Runtime
	inst string
	keys *pki.Keyring
	cfg  Config
	out  func(Result)

	seeds    map[int][seeding.SeedSize]byte
	seedSubs []func(j int, seed [seeding.SeedSize]byte)
	avsses   []*avss.AVSS
	core     *wcs.WCS

	sHat      map[int]bool // Ŝ from WCS, nil until output
	requested map[int]bool // RecRequest seen for index k
	recOut    map[int]*Candidate
	recDone   map[int]bool // reconstruction finished (valid or not) for k
	candSent  bool

	candidates map[int]*Candidate // sender -> validated candidate
	pendCands  map[int]*Candidate // sender -> decoded candidate awaiting its leader's seed (nil: counted ⊥)
	bots       int                // X in Alg. 4: ⊥ candidates
	done       bool

	started bool
}

// Sub-instance paths.
func (c *Coin) seedInst(j int) string { return fmt.Sprintf("%s/sd/%d", c.inst, j) }
func (c *Coin) avssInst(j int) string { return fmt.Sprintf("%s/av/%d", c.inst, j) }
func (c *Coin) wcsInst() string       { return c.inst + "/wcs" }
func (c *Coin) rrInst() string        { return c.inst + "/rr" }
func (c *Coin) cdInst() string        { return c.inst + "/cd" }

// New registers a Coin instance and its fixed sub-instances. Call Start to
// activate. The callback fires exactly once.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, cfg Config, out func(Result)) *Coin {
	c := &Coin{
		rt:         rt,
		inst:       inst,
		keys:       keys,
		cfg:        cfg,
		out:        out,
		seeds:      make(map[int][seeding.SeedSize]byte),
		avsses:     make([]*avss.AVSS, rt.N()),
		requested:  make(map[int]bool),
		recOut:     make(map[int]*Candidate),
		recDone:    make(map[int]bool),
		candidates: make(map[int]*Candidate),
		pendCands:  make(map[int]*Candidate),
	}
	rt.Register(c.rrInst(), proto.HandlerFunc(c.onRecRequest))
	rt.Register(c.cdInst(), proto.HandlerFunc(c.onCandidate))
	c.core = wcs.New(rt, c.wcsInst(), keys, c.onCore)
	return c
}

// Start activates the instance (Alg. 4 lines 1–3).
func (c *Coin) Start() {
	if c.started {
		return
	}
	c.started = true
	if c.cfg.GenesisNonce != nil {
		// Adaptive variant: every seed is the genesis nonce.
		var sd [seeding.SeedSize]byte
		h := seedHash(c.cfg.GenesisNonce)
		copy(sd[:], h)
		for j := 0; j < c.rt.N(); j++ {
			c.deliverSeed(j, sd)
		}
		return
	}
	for j := 0; j < c.rt.N(); j++ {
		j := j
		s := seeding.New(c.rt, c.seedInst(j), c.keys, j, func(sd [seeding.SeedSize]byte) {
			c.deliverSeed(j, sd)
		})
		s.Start()
	}
}

// Seed returns party j's VRF seed if known.
func (c *Coin) Seed(j int) ([seeding.SeedSize]byte, bool) {
	s, ok := c.seeds[j]
	return s, ok
}

// OnSeed subscribes to seed arrivals; already-known seeds are replayed
// immediately, in ascending party order — map-order replay would let two
// identical (spec, seed) runs process downstream accepts in different
// orders. Election uses this to validate RBC'd VRFs.
func (c *Coin) OnSeed(fn func(j int, seed [seeding.SeedSize]byte)) {
	c.seedSubs = append(c.seedSubs, fn)
	for _, j := range order.SortedKeys(c.seeds) {
		fn(j, c.seeds[j])
	}
}

// vrfInput binds the VRF evaluation to the session and the seed
// (VRF.Eval_i^ID(seed_i) in the paper).
func (c *Coin) VRFInput(seed [seeding.SeedSize]byte) []byte {
	in := make([]byte, 0, len(c.inst)+seeding.SeedSize+8)
	in = append(in, "coin/vrf"...)
	in = append(in, c.inst...)
	in = append(in, seed[:]...)
	return in
}

// deliverSeed is Alg. 4 lines 4–8: on seed_j, the dealer evaluates and
// shares its VRF; everyone else joins AVSS_j as participant.
func (c *Coin) deliverSeed(j int, sd [seeding.SeedSize]byte) {
	if _, dup := c.seeds[j]; dup {
		return
	}
	c.seeds[j] = sd
	for _, fn := range c.seedSubs {
		fn(j, sd)
	}
	a := avss.New(c.rt, c.avssInst(j), c.keys, j,
		func(avss.ShareOutput) { c.onAVSSShared(j) },
		func(m []byte) { c.onAVSSRec(j, m) },
	)
	c.avsses[j] = a
	if j == c.rt.Self() {
		out, pf := c.keys.VRF.Eval(c.VRFInput(sd))
		var w wire.Writer
		w.Bytes32(out[:])
		w.Raw(pf.Bytes())
		a.StartDealer(w.Bytes())
	}
	// A pending RecRequest for j may now be satisfiable.
	c.maybeStartRec(j)
	// Pending candidates referencing leader j can now be validated.
	c.revisitPending(j)
}

// onAVSSShared is Alg. 4 lines 9–12: grow S and hand it to WCS.
func (c *Coin) onAVSSShared(j int) {
	c.core.Add(j)
	c.maybeStartRec(j)
	c.maybeCandidate()
}

// onCore is Alg. 4 lines 13–14: Ŝ arrived; request reconstruction of every
// core member from every party.
func (c *Coin) onCore(set map[int]bool) {
	if c.sHat != nil {
		return
	}
	c.sHat = set
	keys := order.SortedKeys(set)
	for _, k := range keys {
		var w wire.Writer
		w.Int(k)
		c.rt.Multicast(c.rrInst(), w.Bytes())
	}
	// All requested reconstructions might already be done (fast path).
	for _, k := range keys {
		c.requested[k] = true
		c.maybeStartRec(k)
	}
	c.maybeCandidate()
}

// onRecRequest is Alg. 4 lines 22–24.
func (c *Coin) onRecRequest(from int, body []byte) {
	rd := wire.NewReader(body)
	k := rd.Int()
	if rd.Done() != nil || k < 0 || k >= c.rt.N() {
		c.rt.Reject()
		return
	}
	if c.requested[k] {
		return
	}
	c.requested[k] = true
	c.maybeStartRec(k)
}

// maybeStartRec activates AVSS-Rec[k] once all of Alg. 4 line 23's waits
// hold: a RecRequest was seen, our Ŝ is assigned, and AVSS-Sh[k] output.
func (c *Coin) maybeStartRec(k int) {
	if !c.requested[k] || c.sHat == nil {
		return
	}
	a := c.avsses[k]
	if a == nil || a.Shared() == nil {
		return
	}
	a.StartRec()
}

// onAVSSRec is Alg. 4 lines 15–18: a core member's payload reconstructed.
func (c *Coin) onAVSSRec(k int, m []byte) {
	if c.recDone[k] {
		return
	}
	c.recDone[k] = true
	if cand := c.parseAndVerify(k, m); cand != nil {
		c.recOut[k] = cand
	}
	c.maybeCandidate()
}

// parseAndVerify decodes a shared (r, π) payload and checks the VRF of
// party k on its seed. A nil return means the dealer shared garbage.
func (c *Coin) parseAndVerify(k int, m []byte) *Candidate {
	rd := wire.NewReader(m)
	rb := rd.Bytes32()
	pb := rd.Raw(vrf.ProofSize)
	if rd.Done() != nil {
		return nil
	}
	cand := &Candidate{Leader: k}
	copy(cand.Value[:], rb)
	var err error
	if cand.Proof, err = vrf.ProofFromBytes(pb); err != nil {
		return nil
	}
	if valid, _ := c.Verify(cand); !valid {
		return nil
	}
	return cand
}

// Verify checks cand's VRF against its leader's seed (Alg. 4 line 27).
// known is false, and the check deferred, while that seed has not arrived.
func (c *Coin) Verify(cand *Candidate) (valid, known bool) {
	sd, known := c.seeds[cand.Leader]
	if !known {
		return false, false
	}
	return c.keys.VerifyVRF(cand.Leader, c.VRFInput(sd), cand.Value, cand.Proof), true
}

// maybeCandidate is Alg. 4 lines 15–21: once every k ∈ Ŝ reconstructed,
// multicast the speculative largest VRF (or ⊥).
func (c *Coin) maybeCandidate() {
	if c.candSent || c.sHat == nil {
		return
	}
	for k := range c.sHat {
		if !c.recDone[k] {
			return
		}
	}
	c.candSent = true
	var best *Candidate
	for _, k := range order.SortedKeys(c.sHat) {
		cand := c.recOut[k]
		if cand == nil {
			continue
		}
		if best == nil || best.Value.Less(cand.Value) {
			best = cand
		}
	}
	c.rt.Multicast(c.cdInst(), best.Bytes())
}

// onCandidate is Alg. 4 lines 25–31. DecodeCandidate validates the whole
// wire shape at receipt, so only the VRF check itself may wait for the
// leader's seed.
func (c *Coin) onCandidate(from int, body []byte) {
	if c.done {
		return
	}
	if _, dup := c.candidates[from]; dup {
		return
	}
	if _, pend := c.pendCands[from]; pend {
		return
	}
	cand, ok := DecodeCandidate(body, c.rt.N())
	if !ok {
		c.rt.Reject()
		return
	}
	if cand == nil {
		c.pendCands[from] = nil // mark counted so duplicates are ignored
		c.bots++
		c.maybeOutput()
		return
	}
	c.acceptCandidate(from, cand)
}

// acceptCandidate counts a decoded candidate whose VRF verifies, or parks
// it until its leader's seed arrives.
func (c *Coin) acceptCandidate(from int, cand *Candidate) {
	valid, known := c.Verify(cand)
	switch {
	case !known:
		c.pendCands[from] = cand
	case !valid:
		c.rt.Reject()
	default:
		c.candidates[from] = cand
		c.maybeOutput()
	}
}

// revisitPending re-processes candidates that were waiting for leader j's
// seed.
func (c *Coin) revisitPending(j int) {
	for _, from := range order.SortedKeys(c.pendCands) {
		cand := c.pendCands[from]
		if cand == nil || cand.Leader != j {
			continue // counted ⊥ marker, or waiting for another seed
		}
		delete(c.pendCands, from)
		c.acceptCandidate(from, cand)
	}
}

func (c *Coin) maybeOutput() {
	if c.done || len(c.candidates)+c.bots < c.rt.N()-c.rt.F() {
		return
	}
	c.done = true
	// Max by value, scanned in sorted party order: VRF outputs are unequal
	// with overwhelming probability, but on a tie the winner must not be a
	// map-iteration accident (lowest party index wins).
	var best *Candidate
	for _, j := range order.SortedKeys(c.candidates) {
		cand := c.candidates[j]
		if best == nil || best.Value.Less(cand.Value) {
			best = cand
		}
	}
	res := Result{Max: best}
	if best != nil {
		res.Bit = best.Value[vrf.OutputSize-1] & 1
	}
	c.out(res)
}

func seedHash(nonce []byte) []byte {
	h := sha256.New()
	h.Write([]byte("coin/genesis"))
	h.Write(nonce)
	return h.Sum(nil)
}
