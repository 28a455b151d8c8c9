package livenet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/proto"
)

// DefaultAwaitTimeout bounds a single Await on the live runtime. Live runs
// have no delivery budget to exhaust, so a wall-clock cap is what turns a
// genuine liveness failure into an error instead of a hang.
const DefaultAwaitTimeout = 2 * time.Minute

// Driver adapts a live runtime to the proto.Driver session contract.
//
// Nodes run on their own dispatcher goroutines, so Launch schedules onto
// the node's dispatcher (Node.Do), Update serializes collector mutations
// under the driver lock and wakes waiters, and Await only blocks — the
// network drives itself. Instances therefore run truly in parallel, while
// the same launcher code interleaves them on the simulator.
type Driver struct {
	// Timeout caps one Await; <= 0 selects DefaultAwaitTimeout.
	Timeout time.Duration

	host driverHost

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
}

// driverHost is the slice of a runtime the Driver needs: a Network hosts
// all n parties in one process, a Party hosts exactly one (noded), whose
// Runtime and Launch accept only its own index.
type driverHost interface {
	Runtime(i int) proto.Runtime
	Launch(i int, fn func())
}

// NewDriver wraps a *Network or a *Party as a session driver.
func NewDriver(host driverHost, timeout time.Duration) *Driver {
	d := &Driver{host: host, Timeout: timeout}
	d.cond = sync.NewCond(&d.mu)
	return d
}

var _ proto.Driver = (*Driver)(nil)

// Runtime returns node i's protocol-facing surface.
func (d *Driver) Runtime(i int) proto.Runtime { return d.host.Runtime(i) }

// Launch schedules fn onto node i's dispatcher goroutine — the only legal
// way to touch protocol state on the live runtime. Per-node ordering of
// launched fns is the dispatch-queue order.
func (d *Driver) Launch(i int, fn func()) { d.host.Launch(i, fn) }

// Update runs fn under the driver lock and wakes every Await. Protocol
// callbacks fire on dispatcher goroutines; routing their collector writes
// through Update is what makes session bookkeeping race-free.
func (d *Driver) Update(fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn()
	d.cond.Broadcast()
}

// Close fails every current and future Await: once the network's
// dispatchers shut down an incomplete instance can never finish, so
// waiters must not sit out the timeout.
func (d *Driver) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.cond.Broadcast()
}

// Await blocks until done() holds (evaluated under the driver lock), the
// ctx is cancelled, the timeout elapses, or the driver is closed.
func (d *Driver) Await(ctx context.Context, done func() bool) error {
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = DefaultAwaitTimeout
	}
	expired := false
	timer := time.AfterFunc(timeout, func() {
		d.mu.Lock()
		expired = true
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer timer.Stop()
	stop := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer stop()

	d.mu.Lock()
	defer d.mu.Unlock()
	for !done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d.closed {
			return errors.New("livenet: cluster closed while awaiting instance completion")
		}
		if expired {
			return fmt.Errorf("livenet: await timed out after %v", timeout)
		}
		d.cond.Wait()
	}
	return nil
}
