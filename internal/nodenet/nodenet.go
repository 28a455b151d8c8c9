// Package nodenet launches and drives a multi-process cluster: it runs the
// bulletin-PKI setup, writes one noded config per party (reserving concrete
// loopback ports so every process knows every peer up front), spawns n
// noded OS processes, waits for their READY lines, and then drives protocol
// instances over each daemon's control RPC — launch, await, fault
// injection, stats, graceful teardown.
//
// Key derivation matches internal/harness (pki.SetupSeeded), so a process
// cluster and an in-process cluster built from the same seed hold identical
// key material — the basis for comparing decisions against the simulator.
package nodenet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/livenet"
	"repro/internal/noded"
	"repro/internal/pki"
)

// Options shapes a process cluster.
type Options struct {
	N, F int   // F < 0 selects floor((n-1)/3), like the harness
	Seed int64 // cluster-wide seed (keys, WAN replay)

	// BinPath is the noded binary to spawn. Empty builds ./cmd/noded into
	// Dir with the local toolchain.
	BinPath string
	// Dir holds configs, logs and (when built here) the binary. Empty
	// creates a temp dir that Close removes.
	Dir string

	WAN *livenet.WANProfile

	// WAL gives every party a write-ahead-log directory under Dir, enabling
	// durable crash recovery: a SIGKILLed process restarted from the same
	// config (Cluster.Kill / Cluster.Restart) replays its journal and
	// rejoins exactly-once.
	WAL bool

	// AwaitTimeoutMS passes through to each daemon config.
	AwaitTimeoutMS int
}

// readyTimeout bounds process startup.
const readyTimeout = 30 * time.Second

// Cluster is a running set of noded processes.
type Cluster struct {
	N, F int
	Seed int64

	dir    string
	ownDir bool
	bin    string
	cfgs   []*noded.Config
	procs  []*procHandle
	outs   []*processLog
	cls    []*noded.Client

	closeOnce sync.Once
}

// procHandle owns one child process's lifecycle: exactly one goroutine
// calls Wait (after the stdout reader hits EOF, so READY/log lines are
// never truncated), and everyone else watches done.
type procHandle struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process was reaped
	err  error         // Wait's verdict, set before done closes
}

func (h *procHandle) exitCode() int {
	if h.err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(h.err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// processLog captures one process's stdout/stderr for diagnostics.
type processLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (p *processLog) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.Write(b)
}

func (p *processLog) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

// ReservePorts binds k ephemeral loopback ports and releases them so the
// addresses can be written into configs before any process starts. The
// tiny rebind race is acceptable for a single-host launcher.
func ReservePorts(k int) ([]string, error) {
	addrs := make([]string, k)
	lns := make([]net.Listener, 0, k)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// WriteConfigs runs the PKI setup and writes one daemon config per party
// into dir, returning the configs (paths are party<i>.json).
func WriteConfigs(dir string, opts Options) ([]*noded.Config, error) {
	n, f := opts.N, opts.F
	if f < 0 {
		f = (n - 1) / 3
	}
	rings, _, err := pki.SetupSeeded(n, opts.Seed)
	if err != nil {
		return nil, err
	}
	ports, err := ReservePorts(2 * n)
	if err != nil {
		return nil, err
	}
	mesh, control := ports[:n], ports[n:]
	cfgs := make([]*noded.Config, n)
	for i := 0; i < n; i++ {
		cfgs[i] = &noded.Config{
			N: n, F: f, Seed: opts.Seed,
			Listen: mesh[i], Control: control[i], Peers: mesh,
			Keys:           rings[i].Config(),
			WAN:            opts.WAN,
			AwaitTimeoutMS: opts.AwaitTimeoutMS,
		}
		if opts.WAL {
			cfgs[i].WALDir = filepath.Join(dir, "wal", fmt.Sprintf("party%d", i))
		}
		if err := noded.WriteConfig(filepath.Join(dir, fmt.Sprintf("party%d.json", i)), cfgs[i]); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// BuildNoded compiles ./cmd/noded into dir and returns the binary path.
// It must run from inside the module tree (tests, CI, dev machines).
func BuildNoded(dir string) (string, error) {
	bin := filepath.Join(dir, "noded")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/noded")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("nodenet: build noded: %v\n%s", err, out)
	}
	return bin, nil
}

// Launch builds (if needed), writes configs, spawns n processes, waits for
// every READY line, and connects a control client to each daemon.
func Launch(opts Options) (*Cluster, error) {
	if opts.N <= 0 {
		return nil, errors.New("nodenet: N must be positive")
	}
	dir, ownDir := opts.Dir, false
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "nodenet-*"); err != nil {
			return nil, err
		}
		ownDir = true
	}
	cl := &Cluster{N: opts.N, F: opts.F, Seed: opts.Seed, dir: dir, ownDir: ownDir}
	if cl.F < 0 {
		cl.F = (opts.N - 1) / 3
	}
	bin := opts.BinPath
	if bin == "" {
		var err error
		if bin, err = BuildNoded(dir); err != nil {
			cl.Close()
			return nil, err
		}
	}
	cfgs, err := WriteConfigs(dir, opts)
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.cfgs = cfgs

	cl.bin = bin
	cl.procs = make([]*procHandle, opts.N)
	cl.outs = make([]*processLog, opts.N)
	cl.cls = make([]*noded.Client, opts.N)
	readycs := make([]<-chan error, opts.N)
	for i := 0; i < opts.N; i++ {
		rc, err := cl.spawn(i)
		if err != nil {
			cl.Close()
			return nil, err
		}
		readycs[i] = rc
	}
	deadline := time.After(readyTimeout)
	for _, rc := range readycs {
		select {
		case err := <-rc:
			if err != nil {
				err = fmt.Errorf("%w\n%s", err, cl.Logs())
				cl.Close()
				return nil, err
			}
		case <-deadline:
			err := fmt.Errorf("nodenet: cluster not ready after %v\n%s", readyTimeout, cl.Logs())
			cl.Close()
			return nil, err
		}
	}
	for i := 0; i < opts.N; i++ {
		c, err := noded.Dial(cfgs[i].Control, 5*time.Second)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("nodenet: dial party %d control: %w", i, err)
		}
		cl.cls[i] = c
		if _, err := c.Call(&noded.Request{Op: noded.OpPing}, 5*time.Second); err != nil {
			cl.Close()
			return nil, fmt.Errorf("nodenet: ping party %d: %w", i, err)
		}
	}
	return cl, nil
}

// spawn starts (or re-starts) party i's process from its on-disk config and
// returns the channel its READY verdict arrives on. Restarts append to the
// party's existing log capture.
func (cl *Cluster) spawn(i int) (<-chan error, error) {
	cmd := exec.Command(cl.bin, "-config", filepath.Join(cl.dir, fmt.Sprintf("party%d.json", i)))
	if cl.outs[i] == nil {
		cl.outs[i] = &processLog{}
	}
	logbuf := cl.outs[i]
	cmd.Stderr = logbuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("nodenet: spawn party %d: %w", i, err)
	}
	h := &procHandle{cmd: cmd, done: make(chan struct{})}
	cl.procs[i] = h
	readyc := make(chan error, 1)
	scanned := make(chan struct{})
	go func() {
		watchReady(i, stdout, logbuf, readyc)
		close(scanned)
	}()
	go func() {
		<-scanned // don't let Wait close the pipe under the scanner
		h.err = cmd.Wait()
		close(h.done)
	}()
	return readyc, nil
}

// Kill SIGKILLs party i's process — no drain, no flush, no WAL close — and
// waits for the corpse to be reaped. The control client is closed; Restart
// brings the party back from its config (and WAL, when enabled).
func (cl *Cluster) Kill(i int) error {
	h := cl.procs[i]
	if err := h.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("nodenet: kill party %d: %w", i, err)
	}
	<-h.done
	if cl.cls[i] != nil {
		cl.cls[i].Close()
	}
	return nil
}

// Restart respawns party i from the same on-disk config, waits for its
// READY line, and reconnects the control client. With Options.WAL the
// process replays its journal and rejoins the cluster exactly-once.
func (cl *Cluster) Restart(i int) error {
	readyc, err := cl.spawn(i)
	if err != nil {
		return err
	}
	select {
	case err := <-readyc:
		if err != nil {
			return fmt.Errorf("%w\n%s", err, cl.Logs())
		}
	case <-time.After(readyTimeout):
		return fmt.Errorf("nodenet: party %d not ready after %v\n%s", i, readyTimeout, cl.Logs())
	}
	c, err := noded.Dial(cl.cfgs[i].Control, 5*time.Second)
	if err != nil {
		return fmt.Errorf("nodenet: redial party %d control: %w", i, err)
	}
	if _, err := c.Call(&noded.Request{Op: noded.OpPing}, 5*time.Second); err != nil {
		c.Close()
		return fmt.Errorf("nodenet: ping restarted party %d: %w", i, err)
	}
	cl.cls[i] = c
	return nil
}

// watchReady scans one process's stdout for its READY line, then keeps
// draining into the log.
func watchReady(i int, stdout io.Reader, logbuf *processLog, readyc chan<- error) {
	sc := bufio.NewScanner(stdout)
	ready := false
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintf(logbuf, "[party %d] %s\n", i, line)
		if !ready && strings.HasPrefix(line, "READY ") {
			ready = true
			readyc <- nil
		}
	}
	if !ready {
		readyc <- fmt.Errorf("nodenet: party %d exited before READY", i)
	}
}

// Dir returns the cluster's working directory (configs, logs, binary).
func (cl *Cluster) Dir() string { return cl.dir }

// Logs returns the captured output of every process.
func (cl *Cluster) Logs() string {
	var b strings.Builder
	for _, l := range cl.outs {
		if l != nil {
			b.WriteString(l.String())
		}
	}
	return b.String()
}

// Client returns party i's control connection.
func (cl *Cluster) Client(i int) *noded.Client { return cl.cls[i] }

// CallAll issues one request to every party in parallel (reqFor may vary it
// per party) and returns the responses in party order.
func (cl *Cluster) CallAll(reqFor func(i int) *noded.Request, deadline time.Duration) ([]*noded.Response, error) {
	resps := make([]*noded.Response, cl.N)
	errs := make([]error, cl.N)
	var wg sync.WaitGroup
	for i := 0; i < cl.N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = cl.cls[i].Call(reqFor(i), deadline)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("party %d: %w", i, err)
		}
	}
	return resps, nil
}

// AwaitAll blocks until every party reports the tagged instance's decision.
func (cl *Cluster) AwaitAll(tag string) ([]*noded.Decision, error) {
	resps, err := cl.CallAll(func(int) *noded.Request {
		return &noded.Request{Op: noded.OpAwait, Tag: tag}
	}, 0)
	if err != nil {
		return nil, err
	}
	decs := make([]*noded.Decision, cl.N)
	for i, r := range resps {
		decs[i] = r.Decision
	}
	return decs, nil
}

// StatsAll snapshots every party's counters.
func (cl *Cluster) StatsAll() ([]*noded.Stats, error) {
	resps, err := cl.CallAll(func(int) *noded.Request {
		return &noded.Request{Op: noded.OpStats}
	}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	stats := make([]*noded.Stats, cl.N)
	for i, r := range resps {
		stats[i] = r.Stats
	}
	return stats, nil
}

// Sever force-closes party from's outbound connection to party to — the
// fault-injection hook for reconnect tests, delivered over the control RPC.
// During startup the target link may still be dialing (a sever then would
// be a no-op), so it retries until a live connection was actually killed.
// It dials its own control connection: a sever races workload traffic by
// design, and the shared per-party client may be parked in a long await.
func (cl *Cluster) Sever(from, to int) error {
	c, err := noded.Dial(cl.cfgs[from].Control, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Call(&noded.Request{Op: noded.OpSever, To: to}, 10*time.Second)
		if err != nil {
			return err
		}
		if resp.Severed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nodenet: link %d→%d never came up to sever", from, to)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Signal delivers an OS signal to party i's process.
func (cl *Cluster) Signal(i int, sig os.Signal) error {
	return cl.procs[i].cmd.Process.Signal(sig)
}

// WaitExit waits for party i's process to exit and returns its exit code.
func (cl *Cluster) WaitExit(i int, timeout time.Duration) (int, error) {
	h := cl.procs[i]
	select {
	case <-h.done:
		return h.exitCode(), nil
	case <-time.After(timeout):
		return -1, fmt.Errorf("nodenet: party %d still running after %v", i, timeout)
	}
}

// Stop gracefully shuts the cluster down: SIGTERM to every process (the
// same path as the stop op), then wait for all to exit, reporting any
// nonzero status.
func (cl *Cluster) Stop(timeout time.Duration) error {
	for i := range cl.procs {
		_ = cl.Signal(i, syscall.SIGTERM)
	}
	var firstErr error
	for i := range cl.procs {
		code, err := cl.WaitExit(i, timeout)
		if err == nil && code != 0 {
			err = fmt.Errorf("nodenet: party %d exited %d", i, code)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close force-terminates anything still running and removes the temp dir
// (when Launch created it). Safe after Stop; idempotent.
func (cl *Cluster) Close() {
	cl.closeOnce.Do(func() {
		for _, c := range cl.cls {
			if c != nil {
				c.Close()
			}
		}
		for _, h := range cl.procs {
			if h == nil {
				continue
			}
			select {
			case <-h.done:
			default:
				_ = h.cmd.Process.Kill()
			}
		}
		for _, h := range cl.procs {
			if h != nil {
				<-h.done
			}
		}
		if cl.ownDir {
			os.RemoveAll(cl.dir)
		}
	})
}
