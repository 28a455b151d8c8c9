package adversary

// The built-in Byzantine behaviors. Each one targets a specific receipt
// path proven (by the differential suites) to reject mauled inputs in
// isolation, and lies in exactly the way that path detects: the spec
// contract (internal/exp byz specs) then asserts honest safety, liveness
// within budget, and nonzero detection counters end-to-end.
// A behavior that lies about one field decodes the message with its
// sender's codec (avss.KeyShare, adkg's Contribution, aba.Msg, vba.PBSend,
// coin.Candidate), changes that field and encodes it again.

import (
	"strings"

	"repro/internal/core/aba"
	"repro/internal/core/adkg"
	"repro/internal/core/avss"
	"repro/internal/core/coin"
	"repro/internal/core/vba"
)

func pass(body []byte) [][]byte { return [][]byte{body} }

func init() {
	for _, b := range []Behavior{
		{Name: "byz/avss-equivocate", Protocol: "coin", Mutate: avssEquivocate,
			Doc: "AVSS dealer sends shares inconsistent with its (single) commitment to the f lowest-indexed parties"},
		{Name: "byz/pvss-badshare", Protocol: "adkg", Mutate: pvssBadShare,
			Doc: "ADKG contributor deals a PVSS script whose encrypted shares are swapped between parties"},
		{Name: "byz/adkg-forge-sok", Protocol: "adkg", Mutate: adkgForgeSoK,
			Doc: "ADKG contributor forges its knowledge tag (SoK) while keeping the sharing itself consistent"},
		{Name: "byz/aba-doublevote", Protocol: "aba", Mutate: abaDoubleVote,
			Doc: "ABA participant votes both values: conflicting EST/AUX/FINISH pairs, ordered differently per half"},
		{Name: "byz/vba-doublevote", Protocol: "vba", Mutate: vbaDoubleVote,
			Doc: "VBA proposer provable-broadcasts two different values, pinned in opposite order by each half"},
		{Name: "byz/coin-lie", Protocol: "coin", Mutate: candidateLie,
			Doc: "coin participant multicasts a candidate whose VRF value does not match its proof"},
		{Name: "byz/election-lie", Protocol: "election", Mutate: candidateLie,
			Doc: "election participant lies in the embedded coin's candidate exchange"},
		{Name: "byz/wire-garbage", Protocol: "vba", Mutate: wireGarbage,
			Doc: "peer feeds every receipt path adversarial bytes: random frames, truncations, bit flips, junk suffixes"},
	} {
		Register(b)
	}
}

// avssEquivocate corrupts the private key share sent to each of the f
// lowest-indexed recipients (never self), leaving the commitment — the one
// "root" every recipient checks against — untouched. The recipient's
// pedersen.VerifyShare fails and the share is rejected at receipt. n−f
// consistent shares survive (self plus the untouched recipients), so the
// dealer's sharing still completes: detection without loss of liveness.
func avssEquivocate(env *Env, inst string, to int, body []byte) [][]byte {
	k, ok := avss.DecodeKeyShare(body)
	if !ok || !strings.Contains(inst, "/av/") || to == env.Self || to >= env.F {
		return pass(body)
	}
	k.A[31] ^= 0x01
	return pass(k.Bytes())
}

// pvssBadShare swaps the encrypted shares of parties 0 and 1 inside the
// dealer's own script. The transcript still parses, but the per-share
// pairing checks e(g1, Ŷ_j) = e(A_j, ek_j) fail for both parties, so
// every receiver's VerifyScript rejects the contribution. The ADKG
// aggregates the first n−f valid contributions, which the honest dealers
// still supply.
func pvssBadShare(env *Env, _ string, _ int, body []byte) [][]byte {
	s, ok := adkg.DecodeContribution(body, env.N, env.F)
	if !ok || len(s.Y) < 2 {
		return pass(body)
	}
	s.Y[0], s.Y[1] = s.Y[1], s.Y[0]
	return pass(adkg.EncodeContribution(s))
}

// adkgForgeSoK swaps the (c, s) components of the dealer's own knowledge
// tag. The sharing itself stays consistent — only the proof that the
// dealer knows its secret breaks, which is exactly what sokVerify checks.
func adkgForgeSoK(env *Env, _ string, _ int, body []byte) [][]byte {
	s, ok := adkg.DecodeContribution(body, env.N, env.F)
	if !ok || env.Self >= len(s.Sg) {
		return pass(body)
	}
	sg := &s.Sg[env.Self]
	sg.C, sg.S = sg.S, sg.C
	return pass(adkg.EncodeContribution(s))
}

// abaDoubleVote sends every binary round message twice — once with the
// honest value, once flipped — in opposite orders to the two halves of the
// cluster, so first-arrival bookkeeping pins conflicting votes on disjoint
// halves. Duplicate-AUX and conflicting-FINISH receipt paths record the
// conflict as equivocation evidence.
func abaDoubleVote(env *Env, _ string, to int, body []byte) [][]byte {
	m, ok := aba.DecodeMsg(body)
	if !ok || m.Value > 1 {
		return pass(body) // ⊥ proposals have no conflicting twin
	}
	m.Value = 1 - m.Value
	if to < env.N/2 {
		return [][]byte{body, m.Bytes()}
	}
	return [][]byte{m.Bytes(), body}
}

// vbaDoubleVote turns the proposer's stage-1 provable-broadcast send into
// two sends with different values, ordered oppositely per half: each half
// pins a different value first, and the second arrival trips the
// pinned-value conflict (Reject + Equivocation) at every party. The byz
// proposer can no longer assemble a stage certificate for either value,
// but honest proposals carry the VBA to a decision.
func vbaDoubleVote(env *Env, _ string, to int, body []byte) [][]byte {
	m, ok := vba.DecodePBSend(body, env.N)
	if !ok || m.Stage != 1 || m.Key != nil {
		// Later stages carry certificates bound to the stage-1 value;
		// mutating them is self-defeating, not equivocation. Same for a
		// stage-1 send that justifies itself with a prior-view key.
		return pass(body)
	}
	m.Value = append(m.Value[:len(m.Value):len(m.Value)], '!')
	if to < env.N/2 {
		return [][]byte{body, m.Bytes()}
	}
	return [][]byte{m.Bytes(), body}
}

// candidateLie flips a byte of the coin-candidate VRF value while keeping
// the proof, so every receiver's VRF verification fails and the candidate
// is rejected at receipt. Works unchanged under the election workload,
// whose embedded coin exchanges candidates on the same "/cd" sub-path.
func candidateLie(env *Env, inst string, _ int, body []byte) [][]byte {
	if !strings.HasSuffix(inst, "/cd") {
		return pass(body)
	}
	cand, ok := coin.DecodeCandidate(body, env.N)
	if !ok || cand == nil {
		return pass(body) // a ⊥ candidate carries nothing to lie about
	}
	cand.Value[0] ^= 0x01
	return pass(cand.Bytes())
}

// wireGarbage replaces every outbound message with adversarial bytes: a
// fresh random frame, a truncation, a single bit flip, or a junk suffix,
// chosen per message from the party's seeded RNG. It exercises the whole
// wire-decode surface of whatever protocol the party runs — the in-protocol
// counterpart of FuzzWireReader — and degrades the party to (at worst) a
// noisy crash fault.
func wireGarbage(env *Env, _ string, _ int, body []byte) [][]byte {
	out := make([]byte, len(body))
	copy(out, body)
	switch env.Rng.Intn(4) {
	case 0: // fresh random frame
		out = make([]byte, 1+env.Rng.Intn(48))
		env.Rng.Read(out)
	case 1: // truncate
		if len(out) > 0 {
			out = out[:env.Rng.Intn(len(out))]
		}
	case 2: // flip one bit
		if len(out) > 0 {
			out[env.Rng.Intn(len(out))] ^= 1 << env.Rng.Intn(8)
		}
	default: // junk suffix
		junk := make([]byte, 1+env.Rng.Intn(16))
		env.Rng.Read(junk)
		out = append(out, junk...)
	}
	return pass(out)
}
