package noded

// Crash recovery and WAL maintenance. recoverFromJournal runs once at New:
// it restores snapshot state, then re-executes the journal tail inside
// Party.Replay — the delivery gate is still held, so the dispatcher sees
// exactly the pre-crash processed-message order before any live peer frame.
// Re-executed handlers regenerate their outbound frames with the same link
// seqs as the dead process (the mesh resumed from the journaled send
// cursors), so peers that already received them dedup by seq and peers that
// never did receive them now — exactly-once either way.
//
// syncLoop is the daemon's durability heartbeat: frames a peer has acked
// must first be fsynced here (ack gating), and without a periodic sync an
// idle party would never advance its peers' outbox pruning. It also arms
// compaction once the live log outgrows the threshold.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"time"
)

// walSyncEvery paces the background fsync + cursor publish. It bounds ack
// latency (peers keep resend state until our journal syncs), so it stays a
// few times the TCP flush interval, not seconds.
const walSyncEvery = 5 * time.Millisecond

// recoverFromJournal rebuilds dispatcher state from the folded WAL: restore
// snapshot instances (retired — their traffic is fully absorbed), then
// replay the record tail in order.
func (d *Daemon) recoverFromJournal(snap *walSnapshot, items []replayItem) error {
	if snap != nil {
		d.mu.Lock()
		for _, si := range snap.Insts {
			if _, dup := d.insts[si.Tag]; dup {
				d.mu.Unlock()
				return fmt.Errorf("noded: snapshot instance %q duplicated", si.Tag)
			}
			inst := &instance{kind: si.Kind, tag: si.Tag, dec: si.Decision, retired: true}
			d.insts[si.Tag] = inst
			d.party.Node().Retire(si.Tag)
		}
		d.mu.Unlock()
	}

	var frames, ops int64
	var rerr error
	d.party.Replay(func() {
		for _, it := range items {
			if it.op == nil {
				fr := it.frame
				if fr.from == d.self {
					// Matched against the self-send the replayed handlers
					// regenerated; divergence is counted, the journal record
					// still replays (the WAL is the authority).
					d.party.Node().ConsumeSelf(fr.inst, fr.body)
				}
				d.party.Node().Replay(fr.from, fr.seq, fr.inst, fr.body)
				frames++
				continue
			}
			var req Request
			if err := json.Unmarshal(it.op, &req); err != nil {
				rerr = fmt.Errorf("noded: corrupt op record: %w", err)
				return
			}
			// A tag already restored from the snapshot means the record
			// predates an interrupted compaction — skip it.
			act, err := d.apply(&req)
			if err != nil && !errors.Is(err, errDuplicateTag) {
				rerr = fmt.Errorf("noded: replay %s %q: %w", req.Op, req.Tag, err)
				return
			}
			if act != nil {
				act()
			}
			ops++
		}
		// Self-sends regenerated by replay but never processed before the
		// crash become fresh live tasks, preserving generation order.
		d.party.Node().FlushCapturedSelf()
	})
	if rerr != nil {
		return rerr
	}

	wst := d.jn.log.Stats()
	d.recovery = Stats{
		Restarts:          1,
		ReplayedRecords:   wst.RecoveredRecords,
		ReplayedFrames:    frames,
		ReplayedOps:       ops,
		WALTruncatedBytes: wst.TruncatedBytes,
	}
	return nil
}

// syncLoop is the WAL heartbeat goroutine: periodic fsync + journaled-cursor
// publish (which lets the mesh ack peers), plus compaction arming.
func (d *Daemon) syncLoop() {
	defer close(d.syncDone)
	t := time.NewTicker(walSyncEvery)
	defer t.Stop()
	for {
		select {
		case <-d.syncStop:
			return
		case <-t.C:
			if err := d.jn.syncAndPublish(); err != nil {
				// The write barrier re-raises this on every outbound frame,
				// so the failure is already fail-stop for the mesh; log it
				// once so the operator sees why the party went quiet.
				if d.walErrLogged.CompareAndSwap(false, true) {
					log.Printf("noded: party %d wal sync failed: %v", d.self, err)
				}
				continue
			}
			if d.jn.compactDue() && d.compactPending.CompareAndSwap(false, true) {
				d.party.Do(func() {
					defer d.compactPending.Store(false)
					d.tryCompact()
				})
			}
		}
	}
}

// tryCompact snapshots and rotates the WAL if the party is quiescent:
// every instance decided, no unacked or out-of-order transport state, no
// journal gaps. Quiescence makes the snapshot self-contained — cursors and
// decisions fully describe the party, so the record tail can be dropped.
// Dispatcher context only.
func (d *Daemon) tryCompact() {
	if !d.jn.sparseEmpty() || !d.party.TransportSettled() {
		return
	}
	d.mu.Lock()
	insts := make([]*instance, 0, len(d.insts))
	for _, in := range d.insts {
		insts = append(insts, in)
	}
	d.mu.Unlock()

	entries := make([]snapInst, 0, len(insts))
	settled := true
	d.drv.Update(func() { // dec is guarded by the driver lock
		for _, in := range insts {
			if in.dec == nil {
				settled = false
				return
			}
			entries = append(entries, snapInst{Kind: in.kind, Tag: in.tag, Decision: in.dec})
		}
	})
	if !settled {
		return
	}

	snap := &walSnapshot{
		Send:  d.party.SendCursors(),
		Recv:  d.jn.frontiers(),
		Insts: entries,
	}
	if err := d.jn.compact(snap); err != nil {
		if d.walErrLogged.CompareAndSwap(false, true) {
			log.Printf("noded: party %d wal compaction failed: %v", d.self, err)
		}
		return
	}
	// Retire the absorbed instances: straggler frames for them are still
	// journaled (the record is cheap) but dropped instead of re-handled.
	d.mu.Lock()
	for _, in := range insts {
		if !in.retired {
			in.retired = true
			d.party.Node().Retire(in.tag)
		}
	}
	d.mu.Unlock()
}

// finalCompact runs one bounded compaction attempt on the dispatcher — the
// graceful-shutdown quiescent point, so a clean restart begins from a
// snapshot instead of a full replay.
func (d *Daemon) finalCompact() {
	done := make(chan struct{})
	d.party.Do(func() {
		defer close(done)
		d.tryCompact()
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
}
