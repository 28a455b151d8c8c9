// Package adkg implements the asynchronous distributed key generation of
// §7.3 ("Application to asynchronous DKG", following AJM+21's blueprint):
// every party multicasts an aggregatable PVSS script hiding a random
// secret, gathers and combines n−f contributions from distinct dealers, and
// feeds the aggregate into one VBA instance whose external-validity
// predicate checks "valid PVSS aggregated from ≥ n−f distinct dealers".
// The agreed script is decrypted locally into each party's key share.
//
// With the paper's Election inside VBA, the whole ADKG costs expected
// O(λn³) bits and O(1) rounds with only bulletin PKI — the λn³ log n → λn³
// improvement over AJM+21 claimed in §7.3.
//
// The resulting key material is group-element based (shares ĥ1^{F(ω_i)},
// group public key g1^{F(0)}), as in Gurkan et al.'s aggregatable DKG; the
// per-share threshold-VUF proofs of that work are outside this
// reproduction's scope (see README.md on the simulated pairing), so
// threshold evaluations verify the combined output against the script
// rather than individual shares.
package adkg

import (
	"repro/internal/core/vba"
	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// ThresholdKey is one party's output of the DKG.
type ThresholdKey struct {
	Params   pvss.Params
	GroupPK  pairing.G1   // g1^{F(0)} — the aggregate public key
	PKShares []pairing.G1 // g1^{F(ω_i)} per party — public key shares
	Share    pairing.G2   // ĥ1^{F(ω_self)} — this party's secret share
	Script   *pvss.Script // the agreed transcript
}

// Output delivers the threshold key exactly once.
type Output func(ThresholdKey)

// Config tunes the embedded VBA.
type Config struct {
	VBA vba.Config
}

const msgContribution byte = 1

// params is the (n, f+1) sharing of an n-party, f-resilient ADKG.
func params(n, f int) pvss.Params { return pvss.Params{N: n, Degree: f} }

// EncodeContribution frames the script a party multicasts as the tag and
// a blob. It and DecodeContribution are the wire format Start and Handle use.
func EncodeContribution(s *pvss.Script) []byte {
	var w wire.Writer
	w.Byte(msgContribution)
	w.Blob(s.Bytes())
	return w.Bytes()
}

// DecodeContribution decodes a whole EncodeContribution body under the
// params of an n-party, f-resilient ADKG; ok is false for another tag, a
// malformed frame or a script that does not parse. Verifying it is Handle's.
func DecodeContribution(body []byte, n, f int) (*pvss.Script, bool) {
	raw, ok := unframe(body)
	if !ok {
		return nil, false
	}
	s, err := pvss.FromBytes(params(n, f), raw)
	return s, err == nil
}

// unframe returns the script bytes of a whole Contribution frame.
func unframe(body []byte) (raw []byte, ok bool) {
	rd := wire.NewReader(body)
	if rd.Byte() != msgContribution {
		return nil, false
	}
	raw = rd.Blob()
	return raw, rd.Done() == nil
}

// ADKG is one DKG instance on one node.
type ADKG struct {
	rt     proto.Runtime
	inst   string
	keys   *pki.Keyring
	params pvss.Params
	out    Output

	vb       *vba.VBA
	agg      *pvss.Script
	verified map[int]*pvss.Script // accepted dealers' unit scripts (predicate parts)
	aggN     int                  // contributions folded into agg (stops at n−f)
	started  bool
	vbaIn    bool
	done     bool
}

// New registers an ADKG instance. The sharing threshold is (n, f+1): any
// f+1 shares reconstruct, up to f reveal nothing.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, cfg Config, out Output) *ADKG {
	a := &ADKG{
		rt:       rt,
		inst:     inst,
		keys:     keys,
		params:   params(rt.N(), rt.F()),
		out:      out,
		verified: make(map[int]*pvss.Script),
	}
	a.vb = vba.New(rt, inst+"/vba", keys, a.predicate, cfg.VBA, a.onDecide)
	rt.Register(inst, a)
	return a
}

// Start samples this party's contribution and multicasts it.
func (a *ADKG) Start() {
	if a.started {
		return
	}
	a.started = true
	secret, err := field.Random(a.rt.RandReader())
	if err != nil {
		return
	}
	script, err := pvss.Deal(a.params, a.keys.Board.EncKeys(), a.rt.Self(), a.keys.PVSSSig, secret, a.rt.RandReader())
	if err != nil {
		return
	}
	a.rt.Multicast(a.inst, EncodeContribution(script))
}

// predicate is the VBA external-validity check Q: a valid aggregate with
// ≥ n−f distinct unit-weight contributions.
func (a *ADKG) predicate(value []byte) bool {
	s, err := pvss.FromBytes(a.params, value)
	if err != nil || !s.Distinct(a.rt.N()-a.rt.F()) {
		return false
	}
	// Routed through the cluster's memoizing script verifier: the VBA
	// re-evaluates this predicate once per sender per broadcast stage, and
	// every repeat after the first is a cache hit. The receipt-verified
	// contributions ride along as composition parts, so an honest
	// aggregate whose components this party has already checked validates
	// by byte comparison with no pairing work at all.
	return a.keys.VerifyScriptComposed(a.params, s, a.verified)
}

// Handle implements sim.Handler: collect and aggregate contributions. The
// first n−f verified contributions form this party's VBA proposal;
// contributions arriving after that are still verified and retained (cheap:
// the cluster-wide memo has usually decided them already) because they
// serve as composition parts for validating OTHER parties' aggregates in
// the predicate without pairing work.
func (a *ADKG) Handle(from int, body []byte) {
	// A foreign tag is rejected; a malformed frame or a second
	// contribution from one dealer is dropped before its script is parsed.
	if len(body) == 0 || body[0] != msgContribution {
		a.rt.Reject()
		return
	}
	raw, ok := unframe(body)
	if !ok || a.verified[from] != nil {
		return
	}
	s, err := pvss.FromBytes(a.params, raw)
	if err != nil || !a.keys.VerifyScript(a.params, s) || !s.DealtBy(from) {
		a.rt.Reject()
		return
	}
	a.verified[from] = s
	if a.vbaIn {
		return
	}
	if a.agg == nil {
		a.agg = s
	} else {
		a.agg, err = pvss.AggScripts(a.agg, s)
		if err != nil {
			return
		}
	}
	a.aggN++
	if a.aggN == a.rt.N()-a.rt.F() {
		a.vbaIn = true
		a.vb.Start(a.agg.Bytes())
	}
}

// onDecide derives the key material from the agreed script.
func (a *ADKG) onDecide(value []byte) {
	if a.done {
		return
	}
	s, err := pvss.FromBytes(a.params, value)
	if err != nil {
		return
	}
	a.done = true
	key := ThresholdKey{
		Params:   a.params,
		GroupPK:  s.F[0],
		PKShares: append([]pairing.G1(nil), s.A...),
		Share:    pvss.GetShare(a.rt.Self(), a.keys.PVSSDec, s),
		Script:   s,
	}
	a.out(key)
}
