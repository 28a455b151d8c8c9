package rbc

import (
	"repro/internal/crypto/merkle"
	"repro/internal/crypto/rs"
	"repro/internal/proto"
	"repro/internal/wire"
)

// AVID is an erasure-coded reliable broadcast in the style of
// Cachin–Tessaro's verifiable information dispersal ([18]): the sender
// Reed–Solomon-encodes the payload into n chunks under a Merkle root, sends
// each party its chunk with an inclusion proof, and parties echo chunks so
// everyone can reconstruct. Communication for an |m|-bit payload is
// O(n·|m| + λ·n²·log n); for the O(λn)-bit PVSS scripts committed by the
// AJM+21 baseline the λn²·log n term dominates, which is the log n factor
// in Table 1's AJM+21 row.
//
// This variant is intentionally the baseline's broadcast; the paper's own
// protocols use plain Bracha RBC or the WCS shortcut instead.
type AVID struct {
	rt     proto.Runtime
	inst   string
	sender int
	out    Output

	k          int       // reconstruction threshold = f+1
	codec      *rs.Codec // cached-basis (k, n) codec shared process-wide
	echoSent   bool
	delivered  bool                           // decoded and root-checked, on top of the READY quorum
	rootEchoes map[merkle.Root]map[int][]byte // root -> party -> chunk (from Echo)
	bracha     Bracha[merkle.Root]
	myChunk    []byte
	myProof    merkle.Proof
	myRoot     merkle.Root
	haveChunk  bool
}

const (
	avidDisperse byte = iota + 10
	avidEcho
	avidReady
)

// NewAVID registers an AVID broadcast instance.
func NewAVID(rt proto.Runtime, inst string, sender int, out Output) *AVID {
	a := &AVID{
		rt:         rt,
		inst:       inst,
		sender:     sender,
		out:        out,
		k:          rt.F() + 1,
		rootEchoes: make(map[merkle.Root]map[int][]byte),
		bracha:     NewBracha[merkle.Root](rt.F()),
	}
	// k = f+1 ≤ n always holds, so the codec lookup cannot fail; the nil
	// guard below keeps Start/maybeDeliver fail-silent like every other
	// malformed-state branch.
	a.codec, _ = rs.Get(a.k, rt.N())
	rt.Register(inst, a)
	return a
}

// Start disperses the value; only the designated sender calls it.
func (a *AVID) Start(value []byte) {
	if a.rt.Self() != a.sender || a.codec == nil {
		return
	}
	chunks, err := a.codec.Encode(value)
	if err != nil {
		return
	}
	tree, err := merkle.Build(chunks)
	if err != nil {
		return
	}
	root := tree.Root()
	// The sender just proved (root, value) by construction; seed the dedup
	// cache so its own delivery-time verification is a hit.
	seedRoot(a.k, a.rt.N(), root, value)
	for i := 0; i < a.rt.N(); i++ {
		proof, perr := tree.Prove(i)
		if perr != nil {
			return
		}
		var w wire.Writer
		w.Byte(avidDisperse)
		w.Raw(root[:])
		w.Blob(chunks[i])
		encodeProof(&w, proof)
		a.rt.Send(a.inst, i, w.Bytes())
	}
}

func encodeProof(w *wire.Writer, p merkle.Proof) {
	w.Int(p.Index)
	w.Int(len(p.Siblings))
	for _, s := range p.Siblings {
		w.Raw(s)
	}
}

func decodeProof(r *wire.Reader) merkle.Proof {
	p := merkle.Proof{Index: r.Int()}
	n := r.Int()
	if n < 0 || n > 64 {
		return merkle.Proof{Index: -1}
	}
	for i := 0; i < n; i++ {
		s := r.Raw(merkle.HashSize)
		if s == nil {
			return merkle.Proof{Index: -1}
		}
		p.Siblings = append(p.Siblings, append([]byte(nil), s...))
	}
	return p
}

// Handle implements proto.Handler.
func (a *AVID) Handle(from int, body []byte) {
	rd := wire.NewReader(body)
	switch rd.Byte() {
	case avidDisperse:
		rootB := rd.Raw(merkle.HashSize)
		chunk := rd.Blob()
		proof := decodeProof(rd)
		if rd.Done() != nil || from != a.sender || a.echoSent || rootB == nil {
			a.rt.Reject()
			return
		}
		var root merkle.Root
		copy(root[:], rootB)
		if proof.Index != a.rt.Self() || !merkle.Verify(root, chunk, proof) {
			a.rt.Reject()
			return
		}
		a.echoSent = true
		a.myChunk, a.myProof, a.myRoot, a.haveChunk = chunk, proof, root, true
		// Echo own chunk+proof to everyone so all parties can reconstruct.
		var w wire.Writer
		w.Byte(avidEcho)
		w.Raw(root[:])
		w.Blob(chunk)
		encodeProof(&w, proof)
		a.rt.Multicast(a.inst, w.Bytes())
	case avidEcho:
		rootB := rd.Raw(merkle.HashSize)
		chunk := rd.Blob()
		proof := decodeProof(rd)
		if rd.Done() != nil || rootB == nil || proof.Index != from {
			a.rt.Reject()
			return
		}
		var root merkle.Root
		copy(root[:], rootB)
		if !merkle.Verify(root, chunk, proof) {
			a.rt.Reject()
			return
		}
		set := a.rootEchoes[root]
		if set == nil {
			set = make(map[int][]byte)
			a.rootEchoes[root] = set
		}
		if _, dup := set[from]; dup {
			return
		}
		set[from] = chunk
		if a.bracha.Echo(from, root) {
			a.sendReady(root)
		}
		a.maybeDeliver(root)
	case avidReady:
		rootB := rd.Raw(merkle.HashSize)
		if rd.Done() != nil || rootB == nil {
			a.rt.Reject()
			return
		}
		var root merkle.Root
		copy(root[:], rootB)
		// A repeated READY must not re-run the decode. Delivery waits on
		// decoding as well, so maybeDeliver asks for the READY quorum
		// itself rather than taking Ready's one-shot report.
		if a.bracha.Readied(root, from) {
			return
		}
		if ready, _ := a.bracha.Ready(from, root); ready {
			a.sendReady(root)
		}
		a.maybeDeliver(root)
	default:
		a.rt.Reject()
	}
}

func (a *AVID) sendReady(root merkle.Root) {
	var w wire.Writer
	w.Byte(avidReady)
	w.Raw(root[:])
	a.rt.Multicast(a.inst, w.Bytes())
}

func (a *AVID) maybeDeliver(root merkle.Root) {
	if a.delivered {
		return
	}
	if !a.bracha.Quorum(root) || len(a.rootEchoes[root]) < a.k || a.codec == nil {
		return
	}
	// With the systematic codec the echo-reconstruction path reuses the
	// received chunks instead of interpolating: Decode picks the k lowest
	// echoed indices, and whenever the k systematic chunks are among them
	// the payload is their byte concatenation (zero field work).
	value, err := a.codec.Decode(a.rootEchoes[root])
	if err != nil {
		return
	}
	// Re-encode and check the root to reject a sender who dispersed
	// inconsistent chunks. The source rows of this re-encode are byte
	// copies of the decoded payload; only the n−k parity rows cost field
	// work — and those MUST be recomputed rather than reused from received
	// echoes, because the root check is what pins every chunk (including
	// ones this party never saw) to the unique degree-<k polynomial behind
	// `value`, with the zero padding the framing prescribes. verifyRoot
	// dedups the recompute across parties: a (root, payload) pair any party
	// already verified is answered from a bounded cache.
	if !verifyRoot(a.codec, a.k, a.rt.N(), root, value) {
		return
	}
	a.delivered = true
	a.out(value)
}
