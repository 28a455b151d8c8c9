package adversary

// The built-in Byzantine behaviors. Each one targets a specific receipt
// path proven (by the differential suites) to reject mauled inputs in
// isolation, and lies in exactly the way that path detects: the spec
// contract (internal/exp byz specs) then asserts honest safety, liveness
// within budget, and nonzero detection counters end-to-end.
//
// Wire-format facts the mutators rely on are pinned by the protocol
// packages' encoders (avss.StartDealer, adkg.Start, vba.sendPB, aba send
// helpers; candidateLie goes through coin's own codec) and guarded by
// TestByzantineMatrix (internal/exp), whose detection counters drop to
// zero if an encoding drifts.

import (
	"strings"

	"repro/internal/core/coin"
	"repro/internal/crypto/pvss"
	"repro/internal/wire"
)

// Tag bytes of the protocol messages the mutators rewrite, mirroring the
// (unexported) constants in the protocol packages.
const (
	avssKeyShare     byte = 1 // avss.msgKeyShare: private per-recipient share
	adkgContribution byte = 1 // adkg.msgContribution: Blob-wrapped PVSS script
	vbaPBSend        byte = 1 // vba.msgPBSend: provable-broadcast value send
	abaEST1          byte = 1 // aba round-message tags, EST1..FINISH
	abaAUX1          byte = 2
	abaEST2          byte = 3
	abaAUX2          byte = 4
	abaFINISH        byte = 5
)

func pass(body []byte) [][]byte { return [][]byte{body} }

func init() {
	Register(Behavior{
		Name:     "byz/avss-equivocate",
		Protocol: "coin",
		Doc:      "AVSS dealer sends shares inconsistent with its (single) commitment to the f lowest-indexed parties",
		Mutate:   avssEquivocate,
	})
	Register(Behavior{
		Name:     "byz/pvss-badshare",
		Protocol: "adkg",
		Doc:      "ADKG contributor deals a PVSS script whose encrypted shares are swapped between parties",
		Mutate:   pvssBadShare,
	})
	Register(Behavior{
		Name:     "byz/adkg-forge-sok",
		Protocol: "adkg",
		Doc:      "ADKG contributor forges its knowledge tag (SoK) while keeping the sharing itself consistent",
		Mutate:   adkgForgeSoK,
	})
	Register(Behavior{
		Name:     "byz/aba-doublevote",
		Protocol: "aba",
		Doc:      "ABA participant votes both values: conflicting EST/AUX/FINISH pairs, ordered differently per half",
		Mutate:   abaDoubleVote,
	})
	Register(Behavior{
		Name:     "byz/vba-doublevote",
		Protocol: "vba",
		Doc:      "VBA proposer provable-broadcasts two different values, pinned in opposite order by each half",
		Mutate:   vbaDoubleVote,
	})
	Register(Behavior{
		Name:     "byz/coin-lie",
		Protocol: "coin",
		Doc:      "coin participant multicasts a candidate whose VRF value does not match its proof",
		Mutate:   candidateLie,
	})
	Register(Behavior{
		Name:     "byz/election-lie",
		Protocol: "election",
		Doc:      "election participant lies in the embedded coin's candidate exchange",
		Mutate:   candidateLie,
	})
	Register(Behavior{
		Name:     "byz/wire-garbage",
		Protocol: "vba",
		Doc:      "peer feeds every receipt path adversarial bytes: random frames, truncations, bit flips, junk suffixes",
		Mutate:   wireGarbage,
	})
}

// avssEquivocate corrupts the private key share sent to each of the f
// lowest-indexed recipients (never self), leaving the commitment — the one
// "root" every recipient checks against — untouched. The recipient's
// pedersen.VerifyShare fails and the share is rejected at receipt. n−f
// consistent shares survive (self plus the untouched recipients), so the
// dealer's sharing still completes: detection without loss of liveness.
func avssEquivocate(env *Env, inst string, to int, body []byte) [][]byte {
	if !strings.Contains(inst, "/av/") || len(body) == 0 || body[0] != avssKeyShare {
		return pass(body)
	}
	rd := wire.NewReader(body[1:])
	cmt := rd.Blob()
	shA := rd.Bytes32()
	shB := rd.Bytes32()
	if rd.Done() != nil {
		return pass(body)
	}
	if to == env.Self || to >= env.F {
		return pass(body)
	}
	mauled := make([]byte, 32)
	copy(mauled, shA)
	mauled[31] ^= 0x01
	var w wire.Writer
	w.Byte(avssKeyShare)
	w.Blob(cmt)
	w.Bytes32(mauled)
	w.Bytes32(shB)
	return pass(w.Bytes())
}

// parseScript decodes an outbound ADKG contribution into its PVSS script.
func parseScript(env *Env, body []byte) *pvss.Script {
	rd := wire.NewReader(body[1:])
	raw := rd.Blob()
	if rd.Done() != nil {
		return nil
	}
	s, err := pvss.FromBytes(pvss.Params{N: env.N, Degree: env.F}, raw)
	if err != nil {
		return nil
	}
	return s
}

func encodeScript(s *pvss.Script) [][]byte {
	var w wire.Writer
	w.Byte(adkgContribution)
	w.Blob(s.Bytes())
	return pass(w.Bytes())
}

// pvssBadShare swaps the encrypted shares of parties 0 and 1 inside the
// dealer's own script. The transcript still parses, but the per-share
// pairing checks e(g1, Ŷ_j) = e(A_j, ek_j) fail for both parties, so
// every receiver's VerifyScript rejects the contribution. The ADKG
// aggregates the first n−f valid contributions, which the honest dealers
// still supply.
func pvssBadShare(env *Env, _ string, _ int, body []byte) [][]byte {
	if len(body) == 0 || body[0] != adkgContribution {
		return pass(body)
	}
	s := parseScript(env, body)
	if s == nil || len(s.Y) < 2 {
		return pass(body)
	}
	s.Y[0], s.Y[1] = s.Y[1], s.Y[0]
	return encodeScript(s)
}

// adkgForgeSoK swaps the (c, s) components of the dealer's own knowledge
// tag. The sharing itself stays consistent — only the proof that the
// dealer knows its secret breaks, which is exactly what sokVerify checks.
func adkgForgeSoK(env *Env, _ string, _ int, body []byte) [][]byte {
	if len(body) == 0 || body[0] != adkgContribution {
		return pass(body)
	}
	s := parseScript(env, body)
	if s == nil || env.Self >= len(s.Sg) {
		return pass(body)
	}
	sg := s.Sg[env.Self]
	sg.C, sg.S = sg.S, sg.C
	s.Sg[env.Self] = sg
	return encodeScript(s)
}

// abaDoubleVote sends every binary round message twice — once with the
// honest value, once flipped — in opposite orders to the two halves of the
// cluster, so first-arrival bookkeeping pins conflicting votes on disjoint
// halves. Duplicate-AUX and conflicting-FINISH receipt paths record the
// conflict as equivocation evidence.
func abaDoubleVote(env *Env, _ string, to int, body []byte) [][]byte {
	if len(body) == 0 {
		return pass(body)
	}
	tag := body[0]
	var flipped []byte
	switch tag {
	case abaEST1, abaAUX1, abaEST2, abaAUX2:
		rd := wire.NewReader(body[1:])
		r := rd.Int()
		v := rd.Byte()
		if rd.Done() != nil || v > 1 {
			return pass(body) // ⊥ proposals have no conflicting twin
		}
		var w wire.Writer
		w.Byte(tag)
		w.Int(r)
		w.Byte(1 - v)
		flipped = w.Bytes()
	case abaFINISH:
		rd := wire.NewReader(body[1:])
		v := rd.Byte()
		if rd.Done() != nil || v > 1 {
			return pass(body)
		}
		var w wire.Writer
		w.Byte(tag)
		w.Byte(1 - v)
		flipped = w.Bytes()
	default:
		return pass(body)
	}
	if to < env.N/2 {
		return [][]byte{body, flipped}
	}
	return [][]byte{flipped, body}
}

// vbaDoubleVote turns the proposer's stage-1 provable-broadcast send into
// two sends with different values, ordered oppositely per half: each half
// pins a different value first, and the second arrival trips the
// pinned-value conflict (Reject + Equivocation) at every party. The byz
// proposer can no longer assemble a stage certificate for either value,
// but honest proposals carry the VBA to a decision.
func vbaDoubleVote(env *Env, _ string, to int, body []byte) [][]byte {
	if len(body) == 0 || body[0] != vbaPBSend {
		return pass(body)
	}
	rd := wire.NewReader(body[1:])
	view := rd.Int()
	stage := rd.Byte()
	value := rd.Blob()
	if stage != 1 || rd.Bool() || rd.Done() != nil {
		// Later stages carry certificates bound to the stage-1 value;
		// mutating them is self-defeating, not equivocation. Same for a
		// stage-1 send that justifies itself with a prior-view key.
		return pass(body)
	}
	twin := make([]byte, 0, len(value)+1)
	twin = append(twin, value...)
	twin = append(twin, '!')
	var w wire.Writer
	w.Byte(vbaPBSend)
	w.Int(view)
	w.Byte(1)
	w.Blob(twin)
	w.Bool(false)
	if to < env.N/2 {
		return [][]byte{body, w.Bytes()}
	}
	return [][]byte{w.Bytes(), body}
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
	var w wire.Writer
	cand.Encode(&w)
	return pass(w.Bytes())
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
