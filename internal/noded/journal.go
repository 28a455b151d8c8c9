package noded

// The daemon's write-ahead journal. Every effect that must survive a crash
// is appended here *before* it becomes visible to peers: message frames are
// journaled on the dispatcher immediately before their handler runs, control
// ops (launch, drain) are journaled at their dispatcher position, and the
// mesh's write barrier fsyncs the log before any frame byte reaches a
// socket. On restart the daemon folds the snapshot plus the record tail back
// into (cursor state, instance set, replayed handler calls) and resumes
// exactly where the dead process stopped.
//
// Record schema (wal.Record.Type):
//
//	recFrame — one processed frame: Int from, Uint64 seq, Blob inst, Blob body.
//	           Self-frames carry seq 0 (loopback has no link cursor).
//	recOp    — one accepted control op (launch or drain), the JSON-encoded
//	           rpc Request that Daemon.apply re-applies on replay.
//
// The compaction snapshot is JSON (walSnapshot below): per-peer send/recv
// cursors and retired instance descriptors with their decisions.

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/livenet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// WAL record types.
const (
	recFrame byte = 1
	recOp    byte = 2
)

// walCompactBytes is the appended-bytes threshold that arms compaction: once
// the live log grows past it, the sync ticker schedules a compaction attempt
// on the dispatcher (which still waits for quiescence before snapshotting).
const walCompactBytes = 4 << 20

// frameRec is the decoded form of a recFrame record.
type frameRec struct {
	from int
	seq  uint64
	inst string
	body []byte
}

func encodeFrame(from int, seq uint64, inst string, body []byte) []byte {
	var w wire.Writer
	w.Int(from)
	w.Uint64(seq)
	w.Blob([]byte(inst))
	w.Blob(body)
	return w.Bytes()
}

func decodeFrame(data []byte) (frameRec, error) {
	r := wire.NewReader(data)
	fr := frameRec{from: r.Int(), seq: r.Uint64()}
	fr.inst = string(r.Blob())
	fr.body = r.Blob()
	if err := r.Done(); err != nil {
		return frameRec{}, fmt.Errorf("noded: corrupt frame record: %w", err)
	}
	return fr, nil
}

// walSnapshot is the JSON compaction base. Send/Recv are per-peer link
// cursors (self entry unused), Insts the retired instances whose handler
// traffic the snapshot absorbs.
type walSnapshot struct {
	Send  []uint64   `json:"send"`
	Recv  []uint64   `json:"recv"`
	Insts []snapInst `json:"insts,omitempty"`
}

type snapInst struct {
	Kind     string    `json:"kind"`
	Tag      string    `json:"tag"`
	Decision *Decision `json:"decision,omitempty"`
}

// replayItem is one surviving journal record in processed order, ready for
// Daemon.recoverFromJournal to re-execute.
type replayItem struct {
	frame frameRec // when op is nil
	op    []byte   // a recOp record: JSON Request
}

// cursorTracker maintains one inbound link's journaled-seq frontier: the
// highest seq S such that every frame 1..S has a journal record. Parking can
// journal frames out of processing order relative to their link seq, so seqs
// above the frontier live in a sparse set until the gap fills.
type cursorTracker struct {
	frontier uint64
	sparse   map[uint64]struct{}
}

// add records seq as journaled; it reports false when the seq was already
// covered (a duplicate record, e.g. a re-parked frame journaled twice).
func (t *cursorTracker) add(seq uint64) bool {
	if seq <= t.frontier {
		return false
	}
	if _, dup := t.sparse[seq]; dup {
		return false
	}
	if seq == t.frontier+1 {
		t.frontier++
		for {
			if _, ok := t.sparse[t.frontier+1]; !ok {
				break
			}
			delete(t.sparse, t.frontier+1)
			t.frontier++
		}
	} else {
		if t.sparse == nil {
			t.sparse = make(map[uint64]struct{})
		}
		t.sparse[seq] = struct{}{}
	}
	return true
}

// journal binds the WAL to the daemon's record schema and tracks, per peer,
// the contiguously-journaled recv cursor that gates mesh acks: a peer may
// only be told to forget frames whose records have reached disk.
type journal struct {
	log  *wal.Log
	n    int
	self int

	// publish pushes a synced recv cursor into the mesh ack path
	// (Party.SetJournaled); set once after the party exists, before any
	// traffic flows.
	publish func(from int, seq uint64)

	mu      sync.Mutex
	recv    []cursorTracker
	lastCmp int64 // log.Stats().AppendedBytes at the last compaction

	// appendErr latches the first failed append. A record that never made
	// the log must never have its effects escape, so the write barrier
	// re-raises this error and the mesh stops emitting frames.
	appendErr error
}

func newJournal(log *wal.Log, n, self int) *journal {
	return &journal{log: log, n: n, self: self, recv: make([]cursorTracker, n)}
}

// appendFrame is the livenet journal hook: called on the dispatcher
// goroutine immediately before a frame's handler runs (or before a
// frame for a retired instance is dropped). Peer frames advance the recv tracker;
// self-frames (seq 0) are order-only records.
func (j *journal) appendFrame(from int, seq uint64, inst string, body []byte) {
	j.append(recFrame, encodeFrame(from, seq, inst, body))
	if from != j.self && seq > 0 {
		j.mu.Lock()
		j.recv[from].add(seq)
		j.mu.Unlock()
	}
}

func (j *journal) append(typ byte, data []byte) {
	if err := j.log.Append(typ, data); err != nil {
		j.mu.Lock()
		if j.appendErr == nil {
			j.appendErr = err
		}
		j.mu.Unlock()
	}
}

// syncAndPublish flushes the log and then publishes the recv cursors that
// were durable *before* the flush started. The cursor snapshot is captured
// first: every record counted in it was appended before the capture, so the
// Sync that follows covers it. Used both as the mesh write barrier
// (BeforeWrite) and by the daemon's periodic sync ticker.
func (j *journal) syncAndPublish() error {
	j.mu.Lock()
	aerr := j.appendErr
	cur := make([]uint64, j.n)
	for i := range j.recv {
		cur[i] = j.recv[i].frontier
	}
	j.mu.Unlock()
	if aerr != nil {
		return aerr
	}
	if err := j.log.Sync(); err != nil {
		return err
	}
	if j.publish != nil {
		for from, c := range cur {
			if from != j.self && c > 0 {
				j.publish(from, c)
			}
		}
	}
	return nil
}

// fold consumes the recovered state: the snapshot (if any) seeds the cursor
// trackers, every recovered peer-frame record advances them — duplicate
// records (a re-parked frame journaled twice) are dropped — and the
// survivors come back as the ordered replay list.
func (j *journal) fold() (*walSnapshot, []replayItem, error) {
	var snap *walSnapshot
	if raw := j.log.Snapshot(); raw != nil {
		snap = &walSnapshot{}
		if err := json.Unmarshal(raw, snap); err != nil {
			return nil, nil, fmt.Errorf("noded: corrupt wal snapshot: %w", err)
		}
		j.restoreCursors(snap.Recv)
	}
	var items []replayItem
	for _, rec := range j.log.Records() {
		switch rec.Type {
		case recFrame:
			fr, err := decodeFrame(rec.Data)
			if err != nil {
				return nil, nil, err
			}
			if fr.from < 0 || fr.from >= j.n {
				return nil, nil, fmt.Errorf("noded: frame record from party %d of %d", fr.from, j.n)
			}
			if fr.from != j.self && fr.seq > 0 && !j.track(fr.from, fr.seq) {
				continue // duplicate record of an already-journaled frame
			}
			items = append(items, replayItem{frame: fr})
		case recOp:
			items = append(items, replayItem{op: rec.Data})
		default:
			return nil, nil, fmt.Errorf("noded: unknown wal record type %d", rec.Type)
		}
	}
	return snap, items, nil
}

// track folds one recovered peer frame into the recv tracker, reporting
// false for records already covered (replay must skip those frames).
func (j *journal) track(from int, seq uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recv[from].add(seq)
}

// restoreCursors seeds the trackers from a compaction snapshot.
func (j *journal) restoreCursors(recv []uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.recv {
		if i < len(recv) {
			j.recv[i].frontier = recv[i]
		}
	}
}

// resume builds the livenet cursor-resume block: recv frontiers plus any
// sparse journaled seqs the mesh must dedup without redelivering.
func (j *journal) resume(send []uint64) *livenet.Resume {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := &livenet.Resume{
		Send:   make([]uint64, j.n),
		Recv:   make([]uint64, j.n),
		Sparse: make([][]uint64, j.n),
	}
	copy(r.Send, send)
	for i := range j.recv {
		r.Recv[i] = j.recv[i].frontier
		for s := range j.recv[i].sparse {
			r.Sparse[i] = append(r.Sparse[i], s)
		}
	}
	return r
}

// frontiers returns the per-peer contiguously-journaled recv cursors.
func (j *journal) frontiers() []uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]uint64, j.n)
	for i := range j.recv {
		out[i] = j.recv[i].frontier
	}
	return out
}

// sparseEmpty reports whether every recv tracker is gap-free — a compaction
// precondition, since the snapshot stores only contiguous cursors.
func (j *journal) sparseEmpty() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.recv {
		if len(j.recv[i].sparse) > 0 {
			return false
		}
	}
	return true
}

// compactDue reports whether enough log has accumulated since the last
// compaction to justify scheduling an attempt.
func (j *journal) compactDue() bool {
	st := j.log.Stats()
	j.mu.Lock()
	defer j.mu.Unlock()
	return st.AppendedBytes-j.lastCmp > walCompactBytes
}

// compact writes the snapshot and rotates the log. Dispatcher-only: all
// appenders run on the dispatcher goroutine, so no record can race the
// rotation.
func (j *journal) compact(snap *walSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	if err := j.log.Compact(payload); err != nil {
		return err
	}
	j.mu.Lock()
	j.lastCmp = j.log.Stats().AppendedBytes
	j.mu.Unlock()
	return nil
}
