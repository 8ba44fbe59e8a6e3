// Package fleet runs phasetune-serve workers and a phasetune-shard
// router as real processes on loopback. It is the one harness behind
// phasetune-load's fleet mode and the chaos suites, so a kill -9 means
// the same thing in both.
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"phasetune/internal/shard"
)

// Timeout bounds each wait on a process: its banner and /readyz
// together at start, its exit after SIGTERM, and each HTTP call.
const Timeout = 30 * time.Second

// httpClient rides http.DefaultTransport, whose idle connections
// leaktest closes before it counts goroutines.
var httpClient = &http.Client{Timeout: Timeout}

// Build compiles phasetune-serve and phasetune-shard into dir. It names
// the packages by import path, so it works from anywhere in the module.
func Build(dir string) (serveBin, routerBin string, err error) {
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"phasetune/cmd/phasetune-serve", "phasetune/cmd/phasetune-shard")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("go build: %w\n%s", err, out)
	}
	return filepath.Join(dir, "phasetune-serve"), filepath.Join(dir, "phasetune-shard"), nil
}

// Proc is one running server process.
type Proc struct {
	URL string // http://127.0.0.1:PORT, as the banner announced it

	cmd  *exec.Cmd
	eof  chan struct{} // closed once the output reader has drained the pipe
	mu   sync.Mutex
	out  strings.Builder // stdout and stderr, guarded by mu
	reap sync.Once
	err  error // Wait's result
}

// Start runs bin with -addr 127.0.0.1:0 and args, and returns once the
// banner has announced the address and /readyz answers 200. A process
// that exits first fails Start at once, with its exit status and
// output; one not ready within Timeout is killed.
func Start(bin string, args ...string) (*Proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &Proc{cmd: cmd, eof: make(chan struct{})}
	addr := make(chan string, 1)
	go p.read(stdout, addr)
	fail := func(why string) (*Proc, error) {
		p.Kill()
		return nil, fmt.Errorf("%s %s; output:\n%s", filepath.Base(bin), why, p.Output())
	}
	ctx, cancel := context.WithTimeout(context.Background(), Timeout)
	defer cancel()
	for {
		select {
		case a := <-addr:
			p.URL = "http://" + a
		case <-p.eof:
			return fail(fmt.Sprintf("exited during startup (%v)", p.wait()))
		case <-ctx.Done():
			return fail(fmt.Sprintf("not ready within %v", Timeout))
		case <-time.After(10 * time.Millisecond):
		}
		// The listener comes up before journal recovery: under -recover
		// a worker answers 503 until every session is replayed.
		if p.URL != "" && ready(ctx, p.URL) {
			return p, nil
		}
	}
}

// read copies the process's output into p.out, hands the banner's
// address to addr, and closes p.eof once the pipe is drained.
func (p *Proc) read(r io.Reader, addr chan<- string) {
	defer close(p.eof)
	br := bufio.NewReader(r)
	for err := error(nil); err == nil; {
		var line string
		line, err = br.ReadString('\n')
		p.mu.Lock()
		p.out.WriteString(line)
		p.mu.Unlock()
		// "phasetune-serve listening on 127.0.0.1:PORT (...)"
		if _, rest, ok := strings.Cut(line, " listening on "); ok && strings.HasPrefix(line, "phasetune-") {
			if f := strings.Fields(rest); len(f) > 0 {
				select {
				case addr <- f[0]:
				default: // the first banner already went out
				}
			}
		}
	}
}

func ready(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	return resp.StatusCode == http.StatusOK
}

// Output returns everything the process has written to stdout and
// stderr so far.
func (p *Proc) Output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// Kill SIGKILLs the process and reaps it. Safe to call more than once,
// from any goroutine.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill() // fails only once the process is gone
	_ = p.wait()             // a killed process's exit status says nothing
}

// Terminate sends SIGTERM and returns the exit status once the process
// has exited; past Timeout it kills the process.
func (p *Proc) Terminate() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.eof:
		return p.wait()
	case <-time.After(Timeout):
		p.Kill()
		return fmt.Errorf("no exit within %v of SIGTERM", Timeout)
	}
}

// wait reaps the process once. The pipe is drained to EOF first,
// because Wait closes it.
func (p *Proc) wait() error {
	p.reap.Do(func() {
		<-p.eof
		p.err = p.cmd.Wait()
	})
	return p.err
}

// Config describes a fleet of journaled workers named w0, w1, ...
type Config struct {
	ServeBin   string
	RouterBin  string   // when set, a phasetune-shard router fronts the workers
	Size       int      // how many workers
	ServeArgs  []string // for every worker, at start and at restart
	RouterArgs []string // after the router's -shards list
	Peers      bool     // wire each worker's evaluation cache to all the others
	Replicas   bool     // post the replica topology, a shard.FleetConfig, to every worker
}

// Fleet is a running set of workers, with a router when the Config
// names one.
type Fleet struct {
	cfg    Config
	dir    string // one journal directory per member, named after it
	names  []string
	router *Proc

	mu      sync.Mutex // guards workers and stopped
	workers []*Proc
	stopped bool
}

// New starts the workers, wires them as cfg asks, then starts the
// router. On error it stops whatever it started.
func New(cfg Config) (_ *Fleet, err error) {
	f := &Fleet{cfg: cfg}
	if f.dir, err = os.MkdirTemp("", "phasetune-fleet-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Stop()
		}
	}()
	specs := make([]string, cfg.Size)
	for i := range specs {
		f.names = append(f.names, fmt.Sprintf("w%d", i))
		if err := os.Mkdir(filepath.Join(f.dir, f.names[i]), 0o755); err != nil {
			return nil, err
		}
		p, err := Start(cfg.ServeBin, f.serveArgs(i)...)
		if err != nil {
			return nil, fmt.Errorf("worker %s: %w", f.names[i], err)
		}
		f.mu.Lock()
		f.workers = append(f.workers, p)
		f.mu.Unlock()
		specs[i] = f.names[i] + "=" + p.URL
	}
	if err := f.wire(); err != nil {
		return nil, err
	}
	if cfg.RouterBin != "" {
		if f.router, err = Start(cfg.RouterBin, append([]string{"-shards", strings.Join(specs, ",")}, cfg.RouterArgs...)...); err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
	}
	return f, nil
}

func (f *Fleet) serveArgs(i int, extra ...string) []string {
	args := append([]string(nil), f.cfg.ServeArgs...)
	return append(append(args, "-journal-dir", filepath.Join(f.dir, f.names[i])), extra...)
}

// Names returns the member names, w0 first. Callers must not modify
// the slice.
func (f *Fleet) Names() []string { return f.names }

// Worker returns member i's current process.
func (f *Fleet) Worker(i int) *Proc {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.workers[i]
}

// Router returns the router process, nil when the fleet has none.
func (f *Fleet) Router() *Proc { return f.router }

// Kill SIGKILLs member i and reaps it. It stays dead until Revive or
// Restart.
func (f *Fleet) Kill(i int) { f.Worker(i).Kill() }

// Revive starts member i again with -recover on its journal directory,
// killing the old process first, and rewires the fleet. The router is
// not told: to it, the revived process is a zombie.
func (f *Fleet) Revive(i int) (*Proc, error) {
	f.Kill(i)
	p, err := Start(f.cfg.ServeBin, f.serveArgs(i, "-recover")...)
	if err != nil {
		return nil, fmt.Errorf("restart %s: %w", f.names[i], err)
	}
	f.mu.Lock()
	stopped := f.stopped
	if !stopped {
		f.workers[i] = p
	}
	f.mu.Unlock()
	if stopped {
		p.Kill() // Stop ran while p was starting; p must not outlive the fleet
		return nil, fmt.Errorf("restart %s: fleet stopped", f.names[i])
	}
	return p, f.wire()
}

// Restart is Revive plus repointing the router's entry for member i at
// the new address (POST /admin/shards), which must probe it up.
func (f *Fleet) Restart(i int) (*Proc, error) {
	p, err := f.Revive(i)
	if err != nil || f.router == nil {
		return p, err
	}
	var st struct {
		Up     bool   `json:"up"`
		Reason string `json:"reason"`
	}
	if err := Post(f.router.URL+"/admin/shards", shard.Shard{Name: f.names[i], Addr: p.URL}, &st); err != nil {
		return nil, fmt.Errorf("repoint %s: %w", f.names[i], err)
	}
	if !st.Up {
		return nil, fmt.Errorf("repoint %s: router probed %s down: %s", f.names[i], p.URL, st.Reason)
	}
	return p, nil
}

// Stop kills and reaps the router and every worker, and deletes the
// journal directories. Safe to call more than once.
func (f *Fleet) Stop() {
	f.mu.Lock()
	f.stopped = true
	procs := append([]*Proc{f.router}, f.workers...)
	f.mu.Unlock()
	for _, p := range procs {
		if p != nil {
			p.Kill()
		}
	}
	_ = os.RemoveAll(f.dir) // a temporary directory nothing reads after Stop
}

// wire posts the peer mesh and the replica topology, as configured, to
// every member at its current address.
func (f *Fleet) wire() error {
	members := make([]shard.Shard, len(f.names))
	for i, name := range f.names {
		members[i] = shard.Shard{Name: name, Addr: f.Worker(i).URL}
	}
	for _, m := range members {
		if f.cfg.Peers && len(members) > 1 {
			var peers []string
			for _, o := range members {
				if o.Name != m.Name {
					peers = append(peers, o.Addr)
				}
			}
			if err := Post(m.Addr+"/v1/cache/peers", map[string][]string{"peers": peers}, nil); err != nil {
				return fmt.Errorf("wire peers on %s: %w", m.Name, err)
			}
		}
		if f.cfg.Replicas {
			if err := Post(m.Addr+"/v1/replica/fleet", shard.FleetConfig{Self: m.Name, Members: members}, nil); err != nil {
				return fmt.Errorf("wire replicas on %s: %w", m.Name, err)
			}
		}
	}
	return nil
}

// Post sends body as JSON to url, fails on any answer outside 2xx, and
// decodes the answer into out when out is not nil.
func Post(url string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := httpClient.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
