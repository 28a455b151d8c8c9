package rbc

import "testing"

// step is one ECHO or READY fed to a Bracha tracker, with what it must
// report.
type step struct {
	ready       bool // a READY (else an ECHO)
	from        int
	key         string
	wantReady   bool
	wantDeliver bool
}

func echoes(key string, from, to int) []step {
	var s []step
	for i := from; i < to; i++ {
		s = append(s, step{from: i, key: key})
	}
	return s
}

func readies(key string, from, to int) []step {
	var s []step
	for i := from; i < to; i++ {
		s = append(s, step{ready: true, from: i, key: key})
	}
	return s
}

// then marks the last step of s with the reports it must make.
func then(s []step, ready, deliver bool) []step {
	s[len(s)-1].wantReady, s[len(s)-1].wantDeliver = ready, deliver
	return s
}

func cat(parts ...[]step) []step {
	var s []step
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}

func TestBracha(t *testing.T) {
	cases := []struct {
		name  string
		steps func(f int) []step
		check func(t *testing.T, f int, b *Bracha[string])
	}{
		{"echo quorum readies once", func(f int) []step {
			return cat(
				echoes("a", 0, 2*f),
				then(echoes("a", 2*f, 2*f+1), true, false),
				echoes("a", 2*f+1, 3*f+1),
				readies("a", 0, f+1), // f+1 READYs after an echo ready: silent
			)
		}, nil},
		{"READY amplification, then delivery once", func(f int) []step {
			return cat(
				readies("a", 0, f),
				then(readies("a", f, f+1), true, false),
				readies("a", f+1, 2*f),
				then(readies("a", 2*f, 2*f+1), false, true),
				readies("a", 2*f+1, 3*f+1),
				echoes("a", 0, 3*f+1),
			)
		}, func(t *testing.T, f int, b *Bracha[string]) {
			if !b.Quorum("a") {
				t.Fatal("no READY quorum after 3f+1 READYs")
			}
		}},
		{"echo ready, then READY delivery", func(f int) []step {
			return cat(
				then(echoes("a", 0, 2*f+1), true, false),
				readies("a", 0, 2*f),
				then(readies("a", 2*f, 2*f+1), false, true),
			)
		}, nil},
		{"repeated sender ignored", func(f int) []step {
			var s []step
			for i := 0; i < 3*f+1; i++ {
				s = append(s, step{from: 0, key: "a"}, step{ready: true, from: 0, key: "a"})
			}
			return s
		}, func(t *testing.T, f int, b *Bracha[string]) {
			if b.Quorum("a") {
				t.Fatal("READY quorum from one sender")
			}
		}},
		{"keys counted apart", func(f int) []step {
			return cat(
				echoes("a", 0, f+1),
				echoes("b", f+1, 3*f+1), // 3f+1 echoes in all, 2f for b
				readies("a", 0, f),
				readies("b", f, 2*f), // 2f READYs in all, f per key
				then(readies("b", 2*f, 2*f+1), true, false),
				then(readies("b", 2*f+1, 3*f+1), false, true),
				readies("a", f, 3*f+1), // a's quorum after b's: no second delivery
			)
		}, func(t *testing.T, f int, b *Bracha[string]) {
			if !b.Quorum("a") || !b.Quorum("b") {
				t.Fatal("a READY quorum went uncounted")
			}
		}},
		{"Readied across keys", func(f int) []step {
			return readies("a", 0, 1)
		}, func(t *testing.T, f int, b *Bracha[string]) {
			if !b.Readied("a", 0) || b.Readied("b", 0) || b.Readied("a", 1) {
				t.Fatalf("Readied(a,0)=%v Readied(b,0)=%v Readied(a,1)=%v",
					b.Readied("a", 0), b.Readied("b", 0), b.Readied("a", 1))
			}
		}},
	}
	for _, f := range []int{1, 2} {
		for _, tc := range cases {
			b := NewBracha[string](f)
			for i, s := range tc.steps(f) {
				var ready, deliver bool
				if s.ready {
					ready, deliver = b.Ready(s.from, s.key)
				} else {
					ready = b.Echo(s.from, s.key)
				}
				if ready != s.wantReady || deliver != s.wantDeliver {
					t.Fatalf("f=%d %s: step %d (%+v) reported ready=%v deliver=%v",
						f, tc.name, i, s, ready, deliver)
				}
			}
			if tc.check != nil {
				tc.check(t, f, &b)
			}
		}
	}
}
