// Package avss implements the paper's private-setup-free asynchronous
// verifiable secret sharing (§5.1, Algorithms 1 and 2): an O(λn²)-bit,
// constant-round, adaptively secure AVSS assuming only a bulletin PKI, the
// discrete-log assumption (via Pedersen commitments), and EUF-CMA signatures.
//
// Sharing (Alg. 1) is a hybrid scheme: the dealer Shamir-shares a random
// encryption key under a Pedersen polynomial commitment, collects n−f
// signatures on the commitment (the quorum proof Π, guaranteeing f+1
// forever-honest parties hold consistent key shares), then Bracha-broadcasts
// the ciphertext of the actual secret, gated on Π. Reconstruction (Alg. 2)
// recovers the key from f+1 verified shares and amplifies it with a Key
// round so that even parties who never saw the commitment can decrypt.
package avss

import (
	"bytes"
	"crypto/sha256"

	"repro/internal/core/rbc"
	"repro/internal/crypto/field"
	"repro/internal/crypto/pedersen"
	"repro/internal/crypto/poly"
	"repro/internal/crypto/sig"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Message tags for the sharing and reconstruction phases.
const (
	msgKeyShare byte = iota + 1
	msgKeyStored
	msgCipher
	msgEcho
	msgReady
	msgKeyRec
	msgKey
)

// KeyShare is the dealer's private message to party j (Alg. 1 line 5): the
// commitment to A and B, and A(j), B(j) as scalar encodings. Bytes and
// DecodeKeyShare are the wire format StartDealer and onKeyShare use.
type KeyShare struct {
	Cmt  []byte
	A, B [32]byte
}

// Bytes encodes k as its tag, the commitment as a blob, A(j) and B(j).
func (k *KeyShare) Bytes() []byte {
	var w wire.Writer
	w.Byte(msgKeyShare)
	w.Blob(k.Cmt)
	w.Bytes32(k.A[:])
	w.Bytes32(k.B[:])
	return w.Bytes()
}

// DecodeKeyShare decodes a whole Bytes body; ok is false for another tag
// or a short or over-long body. Checking the shares is onKeyShare's.
func DecodeKeyShare(body []byte) (k KeyShare, ok bool) {
	rd := wire.NewReader(body)
	if rd.Byte() != msgKeyShare {
		return k, false
	}
	k.Cmt = rd.Blob()
	copy(k.A[:], rd.Bytes32())
	copy(k.B[:], rd.Bytes32())
	return k, rd.Done() == nil
}

// ShareOutput is a party's output of AVSS-Sh: the ciphertext plus (when the
// party received a valid KeyShare) its key shares and the commitment. The
// paper's ⊥ cases are modeled by HasShare/HasCmt.
type ShareOutput struct {
	Cipher   []byte
	ShA, ShB field.Scalar
	HasShare bool
	Cmt      pedersen.Commitment
	HasCmt   bool
}

// AVSS is one instance (one dealer, one session) on one node. It carries
// both the AVSS-Sh and AVSS-Rec sub-protocols; reconstruction messages are
// tagged separately on the same instance path.
type AVSS struct {
	rt     proto.Runtime
	inst   string
	keys   *pki.Keyring
	dealer int

	onShare func(ShareOutput)
	onRec   func(secret []byte)

	// Dealer state.
	dealPoly  poly.Poly
	blindPoly poly.Poly
	dealCmt   pedersen.Commitment
	quorum    sig.Quorum // Π; the Cipher goes out when it reaches n−f
	cipherOut []byte

	// Party sharing state.
	shA, shB field.Scalar
	cmt      pedersen.Commitment
	hasShare bool
	pendingC *cipherMsg // Cipher waiting for a KeyShare (Alg. 1 line 17)
	echoed   bool
	bracha   rbc.Bracha[string] // keyed by the ciphertext
	shared   *ShareOutput

	keyShareHook func()

	// Reconstruction state.
	recActive bool
	recSent   bool
	phi       map[int]keyShare // verified key shares (Φ in Alg. 2)
	keySent   bool
	recA      poly.Poly // A and B, pinned by the first f+1 of Φ (set with keySent)
	recB      poly.Poly
	keyVotes  map[string]map[int]bool
	keyVals   map[string]field.Scalar
	recOut    bool
}

// keyShare is one party's pair (A(ω), B(ω)).
type keyShare struct{ a, b field.Scalar }

type cipherMsg struct {
	quorum sig.Quorum
	cmtB   []byte
	cipher []byte
}

// New registers an AVSS instance. dealer is the 0-based dealer index;
// onShare fires once when AVSS-Sh outputs, onRec once when AVSS-Rec
// reconstructs. Either callback may be nil.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, dealer int, onShare func(ShareOutput), onRec func([]byte)) *AVSS {
	a := &AVSS{
		rt:       rt,
		inst:     inst,
		keys:     keys,
		dealer:   dealer,
		onShare:  onShare,
		onRec:    onRec,
		bracha:   rbc.NewBracha[string](rt.F()),
		phi:      make(map[int]keyShare),
		keyVotes: make(map[string]map[int]bool),
		keyVals:  make(map[string]field.Scalar),
	}
	rt.Register(inst, a)
	return a
}

// StartDealer runs Alg. 1 lines 1–6: sample A(x), B(x) of degree f, commit,
// and send each party its key shares. Only the dealer calls this.
func (a *AVSS) StartDealer(secret []byte) {
	if a.rt.Self() != a.dealer {
		return
	}
	f := a.rt.F()
	var err error
	a.dealPoly, err = poly.Random(a.rt.RandReader(), f)
	if err != nil {
		return
	}
	a.blindPoly, err = poly.Random(a.rt.RandReader(), f)
	if err != nil {
		return
	}
	a.dealCmt, err = pedersen.Commit(a.dealPoly, a.blindPoly)
	if err != nil {
		return
	}
	key := a.dealPoly.Secret()
	a.cipherOut = sealCipher(a.inst, key, secret)
	cmtB := a.dealCmt.Bytes()
	for j := 0; j < a.rt.N(); j++ {
		k := KeyShare{
			Cmt: cmtB,
			A:   [32]byte(a.dealPoly.Eval(poly.X(j)).Bytes()),
			B:   [32]byte(a.blindPoly.Eval(poly.X(j)).Bytes()),
		}
		a.rt.Send(a.inst, j, k.Bytes())
	}
}

// StartRec activates AVSS-Rec (Alg. 2 line 1): once the sharing output is
// available and this party holds key shares, multicast them.
func (a *AVSS) StartRec() {
	if a.recActive {
		return
	}
	a.recActive = true
	a.maybeSendKeyRec()
	a.maybeFinishRec()
}

// Shared returns the sharing output, or nil if AVSS-Sh has not completed.
func (a *AVSS) Shared() *ShareOutput { return a.shared }

// KeyShare returns this party's recorded key shares. They can become
// available after the sharing output: a reordered network may complete the
// Bracha tail before the dealer's KeyShare message is processed.
func (a *AVSS) KeyShare() (shA, shB field.Scalar, ok bool) {
	return a.shA, a.shB, a.hasShare
}

// OnKeyShare registers fn to run once this party records its key shares
// (immediately when they are already present).
func (a *AVSS) OnKeyShare(fn func()) {
	a.keyShareHook = fn
	if a.hasShare {
		fn()
	}
}

// sealCipher encrypts/decrypts m with a SHA-256 keystream bound to the key
// and instance (cipher = m ⊕ KDF(key), the paper's key ⊕ m generalized to
// arbitrary-length secrets).
func sealCipher(inst string, key field.Scalar, m []byte) []byte {
	out := make([]byte, len(m))
	var ctr [4]byte
	for off := 0; off < len(m); off += sha256.Size {
		h := sha256.New()
		h.Write([]byte("avss/pad"))
		h.Write([]byte(inst))
		h.Write(key.Bytes())
		ctr[0], ctr[1], ctr[2], ctr[3] = byte(off>>24), byte(off>>16), byte(off>>8), byte(off)
		h.Write(ctr[:])
		pad := h.Sum(nil)
		for i := 0; i < sha256.Size && off+i < len(m); i++ {
			out[off+i] = m[off+i] ^ pad[i]
		}
	}
	return out
}

// storedMsg is what a party signs for Π: it stored shares under this commitment.
func storedMsg(inst string, cmtB []byte) []byte { return sig.Digest("avss/stored", inst, cmtB) }

// Handle implements proto.Handler.
func (a *AVSS) Handle(from int, body []byte) {
	rd := wire.NewReader(body)
	switch rd.Byte() {
	case msgKeyShare:
		a.onKeyShare(from, body)
	case msgKeyStored:
		a.onKeyStored(from, rd)
	case msgCipher:
		a.onCipher(from, rd)
	case msgEcho:
		a.onEcho(from, rd)
	case msgReady:
		a.onReady(from, rd)
	case msgKeyRec:
		a.onKeyRec(from, rd)
	case msgKey:
		a.onKey(from, rd)
	default:
		a.rt.Reject()
	}
}

// onKeyShare is Alg. 1 lines 12–15.
func (a *AVSS) onKeyShare(from int, body []byte) {
	k, ok := DecodeKeyShare(body)
	if !ok || from != a.dealer || a.hasShare {
		a.rt.Reject()
		return
	}
	cmt, err := pedersen.FromBytes(k.Cmt, a.rt.F())
	if err != nil {
		a.rt.Reject()
		return
	}
	shA, errA := field.SetCanonical(k.A[:])
	shB, errB := field.SetCanonical(k.B[:])
	if errA != nil || errB != nil || !cmt.VerifyShare(a.rt.Self(), shA, shB) {
		a.rt.Reject()
		return
	}
	a.shA, a.shB, a.cmt, a.hasShare = shA, shB, cmt, true
	if a.keyShareHook != nil {
		a.keyShareHook()
	}
	s := a.keys.Sign(storedMsg(a.inst, k.Cmt))
	var w wire.Writer
	w.Byte(msgKeyStored)
	w.Raw(s.Bytes())
	a.rt.Send(a.inst, a.dealer, w.Bytes())
	// A Cipher may have arrived before our KeyShare (Alg. 1 line 17's wait).
	if a.pendingC != nil {
		p := a.pendingC
		a.pendingC = nil
		a.tryEcho(p)
	}
}

// onKeyStored is Alg. 1 lines 7–10 (dealer only).
func (a *AVSS) onKeyStored(from int, rd *wire.Reader) {
	sb := rd.Raw(sig.Size)
	if rd.Done() != nil || a.rt.Self() != a.dealer || len(a.dealCmt.C) == 0 {
		a.rt.Reject()
		return
	}
	if a.quorum.Len() >= a.rt.N()-a.rt.F() {
		return // late signature after the quorum closed; not an error
	}
	if !a.keys.Collect(&a.quorum, from, storedMsg(a.inst, a.dealCmt.Bytes()), sb) {
		a.rt.Reject()
		return
	}
	if a.quorum.Len() == a.rt.N()-a.rt.F() {
		var w wire.Writer
		w.Byte(msgCipher)
		a.quorum.Encode(&w)
		w.Blob(a.dealCmt.Bytes())
		w.Blob(a.cipherOut)
		a.rt.Multicast(a.inst, w.Bytes())
	}
}

// onCipher is Alg. 1 lines 16–20.
func (a *AVSS) onCipher(from int, rd *wire.Reader) {
	q, ok := sig.DecodeQuorum(rd, a.rt.N())
	cmtB := rd.Blob()
	cipher := rd.Blob()
	if !ok || rd.Done() != nil || from != a.dealer || a.echoed {
		a.rt.Reject()
		return
	}
	msg := &cipherMsg{quorum: q, cmtB: cmtB, cipher: cipher}
	if !a.hasShare {
		// Wait for the KeyShare (first Cipher only; duplicates rejected).
		if a.pendingC == nil {
			a.pendingC = msg
		}
		return
	}
	a.tryEcho(msg)
}

func (a *AVSS) tryEcho(m *cipherMsg) {
	if a.echoed || !a.hasShare {
		return
	}
	if !bytes.Equal(m.cmtB, a.cmt.Bytes()) {
		a.rt.Reject()
		return
	}
	if !a.keys.VerifyQuorum(storedMsg(a.inst, m.cmtB), &m.quorum, a.rt.N()-a.rt.F()) {
		a.rt.Reject()
		return
	}
	a.echoed = true
	var w wire.Writer
	w.Byte(msgEcho)
	w.Blob(m.cipher)
	a.rt.Multicast(a.inst, w.Bytes())
}

// onEcho / onReady are the Bracha tail of Alg. 1 (lines 21–26).
func (a *AVSS) onEcho(from int, rd *wire.Reader) {
	cipher := rd.Blob()
	if rd.Done() != nil {
		a.rt.Reject()
		return
	}
	if a.bracha.Echo(from, string(cipher)) {
		a.sendReady(cipher)
	}
}

func (a *AVSS) onReady(from int, rd *wire.Reader) {
	cipher := rd.Blob()
	if rd.Done() != nil {
		a.rt.Reject()
		return
	}
	ready, deliver := a.bracha.Ready(from, string(cipher))
	if ready {
		a.sendReady(cipher)
	}
	if deliver {
		out := ShareOutput{
			Cipher:   cipher,
			ShA:      a.shA,
			ShB:      a.shB,
			HasShare: a.hasShare,
			Cmt:      a.cmt,
			HasCmt:   a.hasShare,
		}
		a.shared = &out
		if a.onShare != nil {
			a.onShare(out)
		}
		a.maybeSendKeyRec()
		a.maybeFinishRec()
	}
}

func (a *AVSS) sendReady(cipher []byte) {
	var w wire.Writer
	w.Byte(msgReady)
	w.Blob(cipher)
	a.rt.Multicast(a.inst, w.Bytes())
}

// --- reconstruction (Alg. 2) ---

func (a *AVSS) maybeSendKeyRec() {
	if !a.recActive || a.recSent || a.shared == nil || !a.shared.HasShare {
		return
	}
	a.recSent = true
	var w wire.Writer
	w.Byte(msgKeyRec)
	w.Bytes32(a.shared.ShA.Bytes())
	w.Bytes32(a.shared.ShB.Bytes())
	a.rt.Multicast(a.inst, w.Bytes())
}

// onKeyRec is Alg. 2 lines 4–11.
func (a *AVSS) onKeyRec(from int, rd *wire.Reader) {
	shAB := rd.Bytes32()
	shBB := rd.Bytes32()
	if rd.Done() != nil {
		a.rt.Reject()
		return
	}
	if !a.hasShare { // cmt = ⊥: cannot verify, rely on Key amplification
		return
	}
	if _, dup := a.phi[from]; dup {
		return
	}
	shA, errA := field.SetCanonical(shAB)
	shB, errB := field.SetCanonical(shBB)
	if errA != nil || errB != nil || !a.validKeyShare(from, keyShare{shA, shB}) {
		a.rt.Reject()
		return
	}
	a.phi[from] = keyShare{shA, shB}
	if len(a.phi) == a.rt.F()+1 && !a.keySent {
		// Sorted party order: interpolation is subset-exact either way, but
		// map-order assembly would make replays of the same seed diverge.
		as := make([]poly.Share, 0, len(a.phi))
		bs := make([]poly.Share, 0, len(a.phi))
		for _, j := range order.SortedKeys(a.phi) {
			as = append(as, poly.Share{Index: j, Value: a.phi[j].a})
			bs = append(bs, poly.Share{Index: j, Value: a.phi[j].b})
		}
		recA, errA := poly.Interpolate(as)
		recB, errB := poly.Interpolate(bs)
		if errA != nil || errB != nil {
			return
		}
		a.recA, a.recB, a.keySent = recA, recB, true
		var w wire.Writer
		w.Byte(msgKey)
		w.Bytes32(a.recA.Secret().Bytes())
		a.rt.Multicast(a.inst, w.Bytes())
	}
}

// validKeyShare decides whether sh is party from's key share under a.cmt,
// with a group operation only where nothing cheaper gives the same answer.
func (a *AVSS) validKeyShare(from int, sh keyShare) bool {
	switch {
	case from == a.rt.Self() && sh.a.Equal(a.shA) && sh.b.Equal(a.shB):
		// Our own KeyRec looped back: onKeyShare checked exactly this pair
		// against a.cmt when it stored the three together.
		return true
	case a.keySent:
		// f+1 accepted shares satisfy g^{A(i)} h^{B(i)} = Eval(C, i), and
		// both sides have degree ≤ f in the exponent, so Eval(C, j) =
		// g^{A(j)} h^{B(j)} for every j whatever the dealer did. A pair
		// equal to (A(j), B(j)) therefore passes VerifyShare, and any other
		// pair that passed it would open one Pedersen commitment two ways
		// (binding, Lemma 3): same decision, field arithmetic only.
		x := poly.X(from)
		return sh.a.Equal(a.recA.Eval(x)) && sh.b.Equal(a.recB.Eval(x))
	default:
		return a.cmt.VerifyShare(from, sh.a, sh.b)
	}
}

// onKey is Alg. 2 lines 12–13.
func (a *AVSS) onKey(from int, rd *wire.Reader) {
	keyB := rd.Bytes32()
	if rd.Done() != nil {
		a.rt.Reject()
		return
	}
	key, err := field.SetCanonical(keyB)
	if err != nil {
		a.rt.Reject()
		return
	}
	k := string(keyB)
	set := a.keyVotes[k]
	if set == nil {
		set = make(map[int]bool)
		a.keyVotes[k] = set
		a.keyVals[k] = key
	}
	if set[from] {
		return
	}
	set[from] = true
	a.maybeFinishRec()
}

func (a *AVSS) maybeFinishRec() {
	if a.recOut || a.shared == nil || a.onRec == nil {
		return
	}
	for _, k := range order.SortedKeys(a.keyVotes) {
		if len(a.keyVotes[k]) >= a.rt.F()+1 {
			a.recOut = true
			m := sealCipher(a.inst, a.keyVals[k], a.shared.Cipher)
			a.onRec(m)
			return
		}
	}
}
