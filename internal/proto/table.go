package proto

import (
	"fmt"
	"strings"

	"repro/internal/order"
)

// Table is one party's instance routing, the same on both runtimes: the
// handler registered under each instance path, the messages parked for
// paths nobody has registered yet, and the retired path prefixes whose
// traffic is dropped. M is the runtime's inbound message record. The zero
// value is ready to use; a Table does no locking (the simulator is
// single-threaded, the live runtime holds its node lock).
type Table[M any] struct {
	insts   map[string]Handler
	parked  map[string][]M
	retired []string
}

// Register installs h under inst and returns the messages parked for inst,
// in arrival order, for the runtime to replay. Under a retired path it
// installs nothing. A second handler for one path panics: two instances
// sharing a path would read each other's messages.
func (t *Table[M]) Register(inst string, h Handler) []M {
	if _, dup := t.insts[inst]; dup {
		panic(fmt.Sprintf("proto: duplicate instance %q", inst))
	}
	if t.isRetired(inst) {
		return nil
	}
	if t.insts == nil {
		t.insts = make(map[string]Handler)
	}
	t.insts[inst] = h
	buf := t.parked[inst]
	delete(t.parked, inst)
	return buf
}

// Route returns the handler registered under inst. Without one, m is dropped
// if inst is retired (retired reports true) and parked for a later Register
// otherwise.
func (t *Table[M]) Route(inst string, m M) (h Handler, retired bool) {
	if h, ok := t.insts[inst]; ok {
		return h, false
	}
	if t.isRetired(inst) {
		return nil, true
	}
	if t.parked == nil {
		t.parked = make(map[string][]M)
	}
	t.parked[inst] = append(t.parked[inst], m)
	return nil, false
}

// Retire removes the handlers under prefix — the path itself and every
// prefix/… sub-path — and routes their later traffic to the drop. It
// returns the messages that were parked under prefix, in path order, for a
// runtime that must account for every inbound message it drops.
func (t *Table[M]) Retire(prefix string) []M {
	t.retired = append(t.retired, prefix)
	for _, inst := range order.SortedKeys(t.insts) {
		if under(inst, prefix) {
			delete(t.insts, inst)
		}
	}
	var dropped []M
	for _, inst := range order.SortedKeys(t.parked) {
		if under(inst, prefix) {
			dropped = append(dropped, t.parked[inst]...)
			delete(t.parked, inst)
		}
	}
	return dropped
}

// Parked lists, sorted, the instance paths holding parked messages — on a
// stalled run, the sub-protocols some party never activated.
func (t *Table[M]) Parked() []string { return order.SortedKeys(t.parked) }

func (t *Table[M]) isRetired(inst string) bool {
	for _, p := range t.retired {
		if under(inst, p) {
			return true
		}
	}
	return false
}

// under reports whether inst is path prefix or one of its sub-paths.
func under(inst, prefix string) bool {
	return strings.HasPrefix(inst, prefix) && (len(inst) == len(prefix) || inst[len(prefix)] == '/')
}
