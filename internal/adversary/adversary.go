// Package adversary is the Byzantine-party layer: named, registered
// behaviors that wrap a party's proto.Runtime and mutate its outbound
// messages — equivocating dealers, double voters, bad-share contributors,
// garbage-on-the-wire peers. A wrapped party runs the ordinary protocol
// state machines; only what leaves the node lies.
//
// The protocol packages own their wire formats: a behavior reads and
// rewrites a message only through the exported codec of the package that
// sent it, so a format change moves every liar with it.
//
// Behaviors register in a process-wide registry exactly the way exp.Spec
// and the scheduler factories grew: Register at init, Lookup/Names at use.
// Every behavior is a pure function of (env, inst, to, body) and the
// node's own seeded RNG, so a Byzantine run replays bit-identically from
// its seed on the simulator, and the same wrapper drives live TCP parties
// through noded's launch path.
package adversary

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/proto"
)

// Env is the cluster context a mutator sees: the wrapped party's identity
// and its runtime-owned deterministic randomness source. Mutators must draw
// entropy only from Rng — never from package-global rand — so behaviors
// stay seed-replayable (enforced by reprolint's wallclock analyzer).
type Env struct {
	N, F, Self int
	Rng        *rand.Rand
}

// Mutator rewrites one outbound message. It returns the list of bodies to
// actually put on the wire to recipient `to`: {body} passes the message
// through, nil drops it, and multiple entries model double votes (two
// conflicting messages where the protocol permits one). Multicasts are
// fanned out per recipient before mutation, so a mutator can tell disjoint
// halves of the cluster different things.
type Mutator func(env *Env, inst string, to int, body []byte) [][]byte

// Behavior is one named Byzantine strategy.
type Behavior struct {
	// Name is the registry key, e.g. "byz/aba-doublevote".
	Name string
	// Protocol names the workload family that exercises the behavior:
	// "coin", "aba", "vba", "adkg" or "election". The byz spec runner
	// launches that protocol with the last f parties running the behavior.
	Protocol string
	// Doc is a one-line description for the README table and -list output.
	Doc string
	// Mutate rewrites the party's outbound messages.
	Mutate Mutator
}

var (
	regMu    sync.RWMutex
	registry = map[string]Behavior{}
)

// Register adds a behavior to the registry; duplicates and malformed
// entries panic (registration is init-time wiring, not runtime input).
func Register(b Behavior) {
	if b.Name == "" || b.Protocol == "" || b.Mutate == nil {
		panic(fmt.Sprintf("adversary: malformed behavior %+v", b.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name]; dup {
		panic("adversary: duplicate behavior " + b.Name)
	}
	registry[b.Name] = b
}

// Lookup fetches one behavior by exact name.
func Lookup(name string) (Behavior, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Names lists every registered behavior name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runtime wraps a party's real runtime: inbound behavior (Register,
// handlers, counters) is the embedded runtime's, outbound Sends pass
// through the behavior's mutator, and Multicast fans out per recipient so
// the mutator can treat recipients differently.
type runtime struct {
	proto.Runtime
	env Env
	mut Mutator
}

// Wrap returns a Byzantine view of rt running the given behavior. The
// protocol state machines constructed on the wrapped runtime behave
// honestly toward themselves — only their outbound traffic lies.
func Wrap(rt proto.Runtime, b Behavior) proto.Runtime {
	return &runtime{
		Runtime: rt,
		env:     Env{N: rt.N(), F: rt.F(), Self: rt.Self(), Rng: rt.RandReader()},
		mut:     b.Mutate,
	}
}

func (r *runtime) Send(inst string, to int, body []byte) {
	for _, b := range r.mut(&r.env, inst, to, body) {
		r.Runtime.Send(inst, to, b)
	}
}

// Multicast matches the honest runtimes' semantics (all n parties, self
// included) but routes through Send so each recipient is mutated
// independently — the lever behind every tell-different-halves behavior.
func (r *runtime) Multicast(inst string, body []byte) {
	for to := 0; to < r.env.N; to++ {
		r.Send(inst, to, body)
	}
}
