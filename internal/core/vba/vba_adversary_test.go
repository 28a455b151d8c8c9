package vba

import (
	"bytes"
	"testing"

	"repro/internal/crypto/sig"
	"repro/internal/harness"
	"repro/internal/wire"
)

// TestByzLeaderEquivocationNoSplit: a Byzantine PB-leader sends different
// externally valid values to different parties in stage 1. Value pinning
// plus quorum intersection prevents conflicting certificates, so honest
// parties never decide different values.
func TestByzLeaderEquivocationNoSplit(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		const n, f = 4, 1
		byz := map[int]bool{3: true}
		fx := setup(t, n, f, 300+seed, genesisCfg(), harness.Options{Byzantine: byz})
		fx.start(inputsFor(n))
		mk := func(v string) []byte {
			var w wire.Writer
			w.Byte(msgPBSend)
			w.Int(1)
			w.Byte(1)
			w.Blob([]byte(v))
			w.Bool(false)
			return w.Bytes()
		}
		fx.c.Net.Inject(3, 0, "v", mk("ok:evil-A"))
		fx.c.Net.Inject(3, 1, "v", mk("ok:evil-A"))
		fx.c.Net.Inject(3, 2, "v", mk("ok:evil-B"))
		if err := fx.c.Net.Run(200_000_000, func() bool { return len(fx.outs) == 3 }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fx.checkAgreementValidity(t, 3)
	}
}

// TestStalePBSendIgnored: PBSends for frozen or past views never produce
// acks after the Ready barrier (the AMS19 abandon rule).
func TestStalePBSendIgnored(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 310, genesisCfg(), harness.Options{})
	fx.start(inputsFor(n))
	if err := fx.c.Net.Run(200_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	// Drain all in-flight traffic, then measure.
	if err := fx.c.Net.RunAll(10_000_000); err != nil {
		t.Fatal(err)
	}
	// After halting, late stage-1 sends are ignored outright (halted guard).
	pre := fx.c.Net.Metrics().Honest.Msgs
	var w wire.Writer
	w.Byte(msgPBSend)
	w.Int(1)
	w.Byte(1)
	w.Blob([]byte("ok:late"))
	w.Bool(false)
	fx.c.Net.Inject(3, 0, "v", w.Bytes())
	if err := fx.c.Net.RunAll(100_000); err != nil {
		t.Fatal(err)
	}
	// Only the injected message itself is added; no party responds.
	if got := fx.c.Net.Metrics().Honest.Msgs; got != pre+1 {
		t.Fatalf("traffic grew by %d messages after a stale PBSend, want 1 (the injection)", got-pre)
	}
}

// TestFakeKeyJustificationRejected: a stage-1 proposal claiming a key from
// a view that was never elected (or with an unverifiable certificate) is
// rejected.
func TestFakeKeyJustificationRejected(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 311, genesisCfg(), harness.Options{})
	var w wire.Writer
	w.Byte(msgPBSend)
	w.Int(1)
	w.Byte(1)
	w.Blob([]byte("ok:fake-key"))
	w.Bool(true)
	w.Int(0) // key view 0 — invalid (must be ≥ 1 and < current)
	w.Int(2)
	w.Byte(2)
	w.Int(0) // empty quorum
	fx.c.Net.Inject(3, 0, "v", w.Bytes())
	fx.start(inputsFor(n))
	if err := fx.c.Net.Run(200_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	if fx.c.Net.Metrics().Rejected == 0 {
		t.Fatal("fake key justification not rejected")
	}
	dec := fx.checkAgreementValidity(t, n)
	if bytes.Contains(dec, []byte("fake-key")) {
		t.Fatal("proposal with fake key justification decided")
	}
}

// TestCrashAfterProposing: a party that proposes and then crashes mid-view
// does not block the rest (its PB simply never completes).
func TestCrashAfterProposing(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 312, genesisCfg(), harness.Options{})
	fx.start(inputsFor(n))
	// Let a little traffic flow, then crash party 3.
	for s := 0; s < 200; s++ {
		fx.c.Net.Step()
	}
	fx.c.Net.Node(3).Crash()
	if err := fx.c.Net.Run(400_000_000, func() bool { return len(fx.outs) >= 3 }); err != nil {
		t.Fatal(err)
	}
	// Only assert over the three guaranteed-live parties.
	var first []byte
	for i := 0; i < 3; i++ {
		v, ok := fx.outs[i]
		if !ok {
			continue
		}
		if first == nil {
			first = v
		} else if !bytes.Equal(first, v) {
			t.Fatal("agreement violated after mid-run crash")
		}
	}
}

// TestCertificateTails feeds party 0 Decide and ViewChange messages whose
// (stage, value, quorum) tails are malformed or out of range around an
// otherwise valid certificate: each bad tail counts exactly one Reject,
// and the well-formed controls count none.
func TestCertificateTails(t *testing.T) {
	const n, f, view, leader = 4, 1, 1, 2
	fx := setup(t, n, f, 313, genesisCfg(), harness.Options{})
	v := fx.insts[0]
	l := leader
	v.state(view).leader = &l // the election of view 1 chose party 2
	value := []byte("ok:certified")
	quorum := func(stage int) []byte {
		var q sig.Quorum
		for i := 0; i < n-f; i++ {
			q.Add(i, fx.c.Keys[i].Sig.Sign(v.ackMsg(view, leader, stage, value)))
		}
		var w wire.Writer
		q.Encode(&w)
		return w.Bytes()
	}
	// tail is the (stage, value, quorum) tail, or a bare stage 0, plus
	// extra bytes.
	tail := func(stage int, quorum []byte, extra ...byte) []byte {
		var w wire.Writer
		w.Byte(byte(stage))
		if stage > 0 {
			w.Blob(value)
			w.Raw(quorum)
		}
		w.Raw(extra)
		return w.Bytes()
	}
	decide := func(t []byte) []byte {
		var w wire.Writer
		w.Byte(msgDecide)
		w.Int(view)
		w.Int(leader)
		w.Raw(t)
		return w.Bytes()
	}
	viewChange := func(t []byte) []byte {
		var w wire.Writer
		w.Byte(msgViewChange)
		w.Int(view)
		w.Raw(t)
		return w.Bytes()
	}
	q3 := quorum(3)
	for i, c := range []struct {
		name    string
		body    []byte
		rejects int64
	}{
		{"decide at stage 3", decide(tail(3, q3)), 0},
		{"decide at stage 2", decide(tail(2, quorum(2))), 1},
		{"decide at stage 5", decide(tail(5, quorum(5))), 1},
		{"decide with a truncated quorum", decide(tail(3, q3[:len(q3)-1])), 1},
		{"decide with a quorum for another stage", decide(tail(4, q3)), 1},
		{"decide with a trailing byte", decide(tail(3, q3, 0)), 1},
		{"decide at stage 0", decide(tail(0, nil)), 1},
		{"view change at stage 0", viewChange(tail(0, nil)), 0},
		{"view change at stage 0 plus a trailing byte", viewChange(tail(0, nil, 0)), 1},
		{"view change at stage 3", viewChange(tail(3, q3)), 0},
		{"view change with a truncated quorum", viewChange(tail(3, q3[:len(q3)-1])), 1},
		{"view change with a trailing byte", viewChange(tail(3, q3, 0)), 1},
		{"view change with a quorum for another stage", viewChange(tail(2, q3)), 1},
		{"view change at stage 5", viewChange(tail(5, quorum(5))), 1},
	} {
		// Senders repeat across cases; forget a sender's earlier
		// ViewChange so each case is judged on its own.
		from := i % n
		if c.body[0] == msgViewChange {
			delete(v.state(view).vcHas, from)
		}
		before := fx.c.Net.Metrics().Rejected
		v.Handle(from, c.body)
		if got := fx.c.Net.Metrics().Rejected - before; got != c.rejects {
			t.Errorf("%s: %d rejects, want %d", c.name, got, c.rejects)
		}
	}
}
