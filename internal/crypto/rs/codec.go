// codec.go is the cached-basis systematic face of the package: a Codec per
// (k, n) precomputes the Lagrange extension matrix once (process-wide, in a
// bounded memo.Map like every fast-path cache), so Encode passes the k source
// chunks through verbatim and computes only the n−k parity rows as matrix–row
// dot products vectorized across all columns, and Decode applies one memoized
// reconstruction basis per observed index set — with the "first k systematic
// chunks present" case decoding by pure concatenation with zero field work.
// The original evaluate/interpolate paths survive as EncodeSlow/DecodeSlow;
// the differential suite gates fast ⟺ slow equivalence (byte-identical
// outputs, matching accept/reject verdicts), mirroring the
// VrfyScript/VrfyScriptSlow pattern.
package rs

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/crypto/field"
	"repro/internal/crypto/memo"
	"repro/internal/crypto/poly"
	"repro/internal/crypto/verifypool"
)

// Stats are the package's cumulative codec counters. They are process-wide
// (the codec cache is package-level, like its entries), so per-run
// attribution is by delta: harness.Cluster snapshots them at construction
// and reports the difference, exact while no other cluster runs.
type Stats struct {
	Encodes int64 // fast systematic encodes performed
	Decodes int64 // fast decodes performed (systematic or basis-applied)
	// SystematicDecodes counts decodes answered by pure concatenation of
	// the first k source chunks — zero field operations.
	SystematicDecodes int64
	// ParitySymbols counts parity field elements computed (rows × columns);
	// the systematic source symbols are never recomputed.
	ParitySymbols int64
	// FieldMuls counts field multiplications spent applying cached bases
	// across columns (dot-product work). Basis *construction* cost is
	// excluded so the value for a given workload does not depend on what
	// the process cached earlier; the zero-field-work guard test asserts
	// this stays flat across systematic decodes.
	FieldMuls int64
	// BasisHits/BasisBuilds count decode reconstruction-basis memo traffic;
	// CodecHits/CodecBuilds count Get's (k, n) codec-cache traffic.
	BasisHits   int64
	BasisBuilds int64
	CodecHits   int64
	CodecBuilds int64
	// TreeHits/TreeBuilds count AVID parity-recompute traffic: a "build" is a
	// full re-encode + Merkle rebuild verifying a decoded value against its
	// root, a "hit" is the same verification answered by the dedup cache. The
	// counters live here (incremented by the rbc package via NoteTreeHit /
	// NoteTreeBuild) so harness.RSStats surfaces them alongside the codec
	// work they avoid.
	TreeHits   int64
	TreeBuilds int64
}

var counters struct {
	encodes, decodes, systematic atomic.Int64
	paritySymbols, fieldMuls     atomic.Int64
	basisHits, basisBuilds       atomic.Int64
	codecHits, codecBuilds       atomic.Int64
	treeHits, treeBuilds         atomic.Int64
}

// NoteTreeHit records an AVID re-encode verification answered by the
// dedup cache (no codec or Merkle work performed).
func NoteTreeHit() { counters.treeHits.Add(1) }

// NoteTreeBuild records a full AVID re-encode + Merkle rebuild verification.
func NoteTreeBuild() { counters.treeBuilds.Add(1) }

// Snapshot returns the current process-wide counter values.
func Snapshot() Stats {
	return Stats{
		Encodes:           counters.encodes.Load(),
		Decodes:           counters.decodes.Load(),
		SystematicDecodes: counters.systematic.Load(),
		ParitySymbols:     counters.paritySymbols.Load(),
		FieldMuls:         counters.fieldMuls.Load(),
		BasisHits:         counters.basisHits.Load(),
		BasisBuilds:       counters.basisBuilds.Load(),
		CodecHits:         counters.codecHits.Load(),
		CodecBuilds:       counters.codecBuilds.Load(),
		TreeHits:          counters.treeHits.Load(),
		TreeBuilds:        counters.treeBuilds.Load(),
	}
}

// Delta returns s − t, field-wise: the codec work performed between two
// snapshots.
func (s Stats) Delta(t Stats) Stats {
	return Stats{
		Encodes:           s.Encodes - t.Encodes,
		Decodes:           s.Decodes - t.Decodes,
		SystematicDecodes: s.SystematicDecodes - t.SystematicDecodes,
		ParitySymbols:     s.ParitySymbols - t.ParitySymbols,
		FieldMuls:         s.FieldMuls - t.FieldMuls,
		BasisHits:         s.BasisHits - t.BasisHits,
		BasisBuilds:       s.BasisBuilds - t.BasisBuilds,
		CodecHits:         s.CodecHits - t.CodecHits,
		CodecBuilds:       s.CodecBuilds - t.CodecBuilds,
		TreeHits:          s.TreeHits - t.TreeHits,
		TreeBuilds:        s.TreeBuilds - t.TreeBuilds,
	}
}

// Ops reports the total codec operations (encodes + decodes) in s.
func (s Stats) Ops() int64 { return s.Encodes + s.Decodes }

// Codec is a systematic Reed–Solomon codec for fixed (k, n): any k of the n
// coded chunks recover the payload, and chunks 0…k−1 are the source chunks
// themselves (the source symbols ARE the evaluations at X(0…k−1), so the
// slow evaluate/interpolate path produces byte-identical output). A Codec is
// immutable after construction and safe for concurrent use.
type Codec struct {
	k, n int
	// ext[r][j] = λ_j(X(k+r)) over the basis points X(0…k−1): parity chunk
	// k+r is, per column, the dot product of ext[r] with the source column.
	ext [][]field.Scalar
}

// NewCodec precomputes the extension matrix for (k, n). Prefer Get, which
// memoizes codecs package-wide.
func NewCodec(k, n int) (*Codec, error) {
	if k <= 0 || n < k {
		return nil, fmt.Errorf("rs: invalid k=%d n=%d", k, n)
	}
	xs := make([]field.Scalar, k)
	for j := range xs {
		xs[j] = poly.X(j)
	}
	ats := make([]field.Scalar, n-k)
	for r := range ats {
		ats[r] = poly.X(k + r)
	}
	ext, err := poly.EvalMatrix(xs, ats)
	if err != nil {
		return nil, fmt.Errorf("rs: extension basis: %w", err)
	}
	return &Codec{k: k, n: n, ext: ext}, nil
}

// K returns the reconstruction threshold.
func (c *Codec) K() int { return c.k }

// N returns the coded chunk count.
func (c *Codec) N() int { return c.n }

// codecs memoizes Get; an entry is one (n−k)×k scalar matrix (~n·k·32
// bytes), and real clusters use a handful of shapes.
var codecs = memo.New[[2]int, *Codec](256)

// Get returns the memoized codec for (k, n), building and caching it on
// first use. The memo is package-level and bounded: every AVID instance of
// every cluster in the process shares one basis per shape, the same
// cluster-wide reuse discipline as the vcache/scache verifier memos.
func Get(k, n int) (*Codec, error) {
	c, ran, err := codecs.Do([2]int{k, n}, func() (*Codec, error) { return NewCodec(k, n) })
	if err != nil {
		return nil, err
	}
	if ran {
		counters.codecBuilds.Add(1)
	} else {
		counters.codecHits.Add(1)
	}
	return c, nil
}

// --- decode reconstruction bases ---

// decBasis is one memoized reconstruction basis for an observed index set:
// row j recovers the source symbol at X(j) from the supplied chunk values.
// unit[j] ≥ 0 marks rows that are Kronecker deltas (the output point is one
// of the supplied indices), which copy bytes instead of multiplying.
type decBasis struct {
	rows [][]field.Scalar
	unit []int
}

// bases memoizes reconstructionBasis. Keys are (k, index-set); an AVID
// cluster sees few distinct echo subsets per shape, but a long-lived process
// serving many cluster sizes could otherwise grow without bound.
var bases = memo.New[string, *decBasis](1 << 12)

func basisKey(k int, idxs []int) string {
	b := make([]byte, 0, 4*(len(idxs)+1))
	put := func(v int) {
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	put(k)
	for _, i := range idxs {
		put(i)
	}
	return string(b)
}

// reconstructionBasis returns the memoized k×k basis mapping the chunk
// values at the (sorted, distinct) idxs to the source symbols at X(0…k−1).
func reconstructionBasis(k int, idxs []int) (*decBasis, error) {
	b, ran, err := bases.Do(basisKey(k, idxs), func() (*decBasis, error) { return newBasis(k, idxs) })
	if err != nil {
		return nil, err
	}
	if ran {
		counters.basisBuilds.Add(1)
	} else {
		counters.basisHits.Add(1)
	}
	return b, nil
}

func newBasis(k int, idxs []int) (*decBasis, error) {
	xs := make([]field.Scalar, len(idxs))
	for i, idx := range idxs {
		xs[i] = poly.X(idx)
	}
	ats := make([]field.Scalar, k)
	for j := range ats {
		ats[j] = poly.X(j)
	}
	rows, err := poly.EvalMatrix(xs, ats)
	if err != nil {
		return nil, fmt.Errorf("rs: reconstruction basis: %w", err)
	}
	b := &decBasis{rows: rows, unit: make([]int, k)}
	for j := range b.unit {
		b.unit[j] = -1
		if pos := sort.SearchInts(idxs, j); pos < len(idxs) && idxs[pos] == j {
			b.unit[j] = pos
		}
	}
	return b, nil
}

// --- column-parallel work ---

// pool bounds the codec's column fan-out to NumCPU. It is package-private
// (the codec memo is package-level, unlike the per-cluster verification
// pools pki.Setup owns), so worst-case concurrency is one NumCPU pool of
// codec work plus one of verification work — a bounded 2× during the rare
// overlap, not the unbounded per-call goroutine spawn the pool exists to
// prevent. Small payloads (< minParallelCols) never touch it.
var pool = verifypool.New(0)

// minParallelCols is the column count under which splitting the work is all
// overhead: a column costs ~k big.Int multiplications, so below this the
// goroutine + semaphore round trip dominates.
const minParallelCols = 64

// parCols runs fn over [0, cols) in contiguous ranges, fanning out through
// the shared pool for large payloads. fn must touch only its own columns.
func parCols(cols int, fn func(lo, hi int)) {
	if cols < minParallelCols {
		fn(0, cols)
		return
	}
	parts := runtime.NumCPU()
	if parts > cols {
		parts = cols
	}
	tasks := make([]func(), 0, parts)
	for p := 0; p < parts; p++ {
		lo := p * cols / parts
		hi := (p + 1) * cols / parts
		tasks = append(tasks, func() { fn(lo, hi) })
	}
	pool.Par(tasks)
}

// --- fast paths ---

// Encode splits data into k source chunks and extends them to n coded
// chunks, byte-identical to EncodeSlow: chunks 0…k−1 carry the framed
// payload verbatim (one zero guard byte per 31-byte symbol), and each parity
// chunk is one cached-basis row applied across all columns.
func (c *Codec) Encode(data []byte) ([][]byte, error) {
	padded, cols := frame(data, c.k)
	counters.encodes.Add(1)

	chunks := make([][]byte, c.n)
	// Systematic rows: pure byte reshaping, no field work. Source symbol
	// (col, j) is 31 payload bytes; its canonical encoding is the same
	// bytes behind one zero byte (the value is < 2^248 < q).
	for j := 0; j < c.k; j++ {
		out := make([]byte, cols*field.Size)
		for col := 0; col < cols; col++ {
			copy(out[col*field.Size+1:], padded[(col*c.k+j)*chunkBytes:(col*c.k+j+1)*chunkBytes])
		}
		chunks[j] = out
	}
	if c.n == c.k {
		return chunks, nil
	}
	// Parity rows: parse each column's source symbols once, then apply
	// every extension row to it.
	for r := range c.ext {
		chunks[c.k+r] = make([]byte, cols*field.Size)
	}
	parCols(cols, func(lo, hi int) {
		src := make([]field.Scalar, c.k)
		for col := lo; col < hi; col++ {
			for j := 0; j < c.k; j++ {
				off := (col*c.k + j) * chunkBytes
				src[j] = field.FromBytes(padded[off : off+chunkBytes])
			}
			for r, row := range c.ext {
				copy(chunks[c.k+r][col*field.Size:(col+1)*field.Size], field.Dot(row, src).Bytes())
			}
		}
		counters.fieldMuls.Add(int64((hi - lo) * len(c.ext) * c.k))
		counters.paritySymbols.Add(int64((hi - lo) * len(c.ext)))
	})
	return chunks, nil
}

// Decode recovers the payload from at least k chunks, byte-identical in
// outcome to DecodeSlow on any consistent chunk set: same payload on accept,
// rejection on short/ragged/overflowing input. Selection is deterministic
// (the k lowest indices), so when the k systematic chunks are all present
// the payload is their concatenation — zero field operations — and
// otherwise one memoized reconstruction basis is applied across columns.
func (c *Codec) Decode(chunks map[int][]byte) ([]byte, error) {
	return Decode(chunks, c.k)
}

// Decode is the package-level fast decode; the reconstruction basis depends
// only on (k, index set), so it is shared across codecs of different n.
func Decode(chunks map[int][]byte, k int) ([]byte, error) {
	if k <= 0 {
		return nil, fmt.Errorf("rs: invalid k=%d", k)
	}
	if len(chunks) < k {
		return nil, fmt.Errorf("rs: %d chunks, need %d", len(chunks), k)
	}
	idxs := make([]int, 0, len(chunks))
	for i := range chunks {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	idxs = idxs[:k]
	clen := len(chunks[idxs[0]])
	if clen == 0 || clen%field.Size != 0 {
		return nil, fmt.Errorf("rs: bad chunk length %d", clen)
	}
	for _, i := range idxs[1:] {
		if len(chunks[i]) != clen {
			return nil, fmt.Errorf("rs: inconsistent chunk lengths")
		}
	}
	cols := clen / field.Size
	counters.decodes.Add(1)

	out := make([]byte, cols*k*chunkBytes)
	if idxs[k-1] == k-1 {
		// Systematic fast path: the k lowest indices are 0…k−1, so the
		// source symbols are the chunk symbols themselves. The guard byte
		// must be zero — a non-zero guard is exactly the "symbol overflows
		// chunk" rejection of the slow path (values in [2^248, q) survive
		// SetCanonical there but fail the overflow check; values ≥ q fail
		// SetCanonical; either way both paths reject).
		for j, idx := range idxs {
			ch := chunks[idx]
			for col := 0; col < cols; col++ {
				if ch[col*field.Size] != 0 {
					return nil, fmt.Errorf("rs: column %d symbol %d overflows chunk", col, j)
				}
				copy(out[(col*k+j)*chunkBytes:], ch[col*field.Size+1:(col+1)*field.Size])
			}
		}
		counters.systematic.Add(1)
		return unframe(out)
	}

	basis, err := reconstructionBasis(k, idxs)
	if err != nil {
		return nil, err
	}
	// Parse (strict canonical decoding, as the slow path) and apply the
	// basis per column, fanned out together so the big.Int parse is as
	// parallel as the dot products. Unit rows — output points that are
	// themselves supplied indices — copy the parsed value without
	// multiplying. On rejection the ranges race to report; any range's
	// error carries the same verdict, which is all the callers and the
	// differential suite compare.
	var decodeErr struct {
		mu  sync.Mutex
		err error
	}
	setErr := func(err error) {
		decodeErr.mu.Lock()
		if decodeErr.err == nil {
			decodeErr.err = err
		}
		decodeErr.mu.Unlock()
	}
	parCols(cols, func(lo, hi int) {
		muls := 0
		defer func() { counters.fieldMuls.Add(int64(muls)) }()
		colVals := make([]field.Scalar, k)
		for col := lo; col < hi; col++ {
			for pos, idx := range idxs {
				v, err := field.SetCanonical(chunks[idx][col*field.Size : (col+1)*field.Size])
				if err != nil {
					setErr(fmt.Errorf("rs: chunk %d column %d: %w", idx, col, err))
					return
				}
				colVals[pos] = v
			}
			for j := 0; j < k; j++ {
				var v field.Scalar
				if m := basis.unit[j]; m >= 0 {
					v = colVals[m]
				} else {
					v = field.Dot(basis.rows[j], colVals)
					muls += k
				}
				b := v.Bytes()
				if b[0] != 0 {
					setErr(fmt.Errorf("rs: column %d symbol %d overflows chunk", col, j))
					return
				}
				copy(out[(col*k+j)*chunkBytes:], b[1:])
			}
		}
	})
	if decodeErr.err != nil {
		return nil, decodeErr.err
	}
	return unframe(out)
}
