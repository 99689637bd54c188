package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/router"
)

// proc is one tier process the benchmark started.
type proc struct {
	name  string
	url   string
	cmd   *exec.Cmd
	ready chan struct{}
	done  chan struct{} // closed once the process has been reaped
}

// tier is one running serving tier: wloptd backends, plus wloptr in front
// of them when the workload is routed.
type tier struct {
	backends []*proc
	router   *proc
}

// freeAddr asks the kernel for an unused loopback address.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// backendAddrs picks a loopback address for each of n backends. With
// routing keys it draws fresh ports until the router's ring, which hashes
// the backend URLs, splits the keys evenly to within 1%: otherwise the
// ports would decide each run's share of keys per backend, and with it how
// many of a backend's keys fit its result cache.
func backendAddrs(n int, keys []string) ([]string, error) {
	var best []string
	bestDev := len(keys) + 1
	for try := 0; try < 200 && bestDev > len(keys)/100; try++ {
		addrs := make([]string, n)
		urls := make([]string, n)
		seen := map[string]bool{}
		for i := range addrs {
			a, err := freeAddr()
			if err != nil {
				return nil, err
			}
			addrs[i], urls[i] = a, "http://"+a
			seen[a] = true
		}
		if len(seen) < n {
			continue // the kernel handed out a port twice
		}
		if len(keys) == 0 {
			return addrs, nil
		}
		ring := router.NewRing(urls, 0)
		count := map[string]int{}
		for _, k := range keys {
			owner, _ := ring.Owner(k)
			count[owner]++
		}
		dev := 0
		for _, u := range urls {
			dev = max(dev, abs(count[u]-len(keys)/n))
		}
		if dev < bestDev {
			best, bestDev = addrs, dev
		}
	}
	if best == nil {
		return nil, errors.New("no distinct loopback ports for the backends")
	}
	return best, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// spawn starts bin with args, listening on addr. The process dies with
// the benchmark (Pdeathsig), and its log is scanned for the "listening"
// line that the daemons print once their listener starts; everything
// after it is discarded.
func spawn(name, bin, addr string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, ready: make(chan struct{}), done: make(chan struct{})}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "msg=listening") {
				close(p.ready)
				break
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// await blocks until the process logged that it listens, then polls
// /healthz back to back (no sleep between probes) until it answers.
func (p *proc) await(cl *api.Client) error {
	select {
	case <-p.ready:
	case <-p.done:
		return fmt.Errorf("%s exited during boot", p.name)
	case <-time.After(30 * time.Second):
		return fmt.Errorf("%s did not start listening within 30s", p.name)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := cl.Health(ctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s /healthz: %w", p.name, err)
		}
	}
}

// stop sends SIGTERM (the daemons drain and exit) and waits for the
// process to end, killing it after 10s.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:

	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// tierConfig shapes a tier.
type tierConfig struct {
	bin      string // directory holding the wloptd and wloptr binaries
	backends int
	workers  int
	npsd     int
	store    string // parent of per-backend store directories; "" = none
	router   bool
	keys     []string // routing keys the router should split evenly
}

// nodeName is the job-ID prefix of backend i, so every served job ID
// names its owner.
func nodeName(i int) string { return fmt.Sprintf("b%d", i) }

// startTier spawns the tier and returns once every process answers.
func startTier(cfg tierConfig, cl func(url string) *api.Client) (*tier, error) {
	t := &tier{}
	var keys []string
	if cfg.router {
		keys = cfg.keys
	}
	addrs, err := backendAddrs(cfg.backends, keys)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.backends; i++ {
		args := []string{"-workers", strconv.Itoa(cfg.workers), "-node", nodeName(i)}
		if cfg.npsd > 0 {
			args = append(args, "-npsd", strconv.Itoa(cfg.npsd))
		}
		if cfg.store != "" {
			args = append(args, "-store", filepath.Join(cfg.store, nodeName(i)))
		}
		p, err := spawn(nodeName(i), filepath.Join(cfg.bin, "wloptd"), addrs[i], args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.backends = append(t.backends, p)
	}
	if cfg.router {
		urls := make([]string, len(t.backends))
		for i, b := range t.backends {
			urls[i] = b.url
		}
		addr, err := freeAddr()
		if err != nil {
			t.stop()
			return nil, err
		}
		p, err := spawn("router", filepath.Join(cfg.bin, "wloptr"), addr, "-backends", strings.Join(urls, ","))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.router = p
	}
	for _, p := range t.procs() {
		if err := p.await(cl(p.url)); err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

func (t *tier) procs() []*proc {
	ps := append([]*proc(nil), t.backends...)
	if t.router != nil {
		ps = append(ps, t.router)
	}
	return ps
}

// entry is the URL clients submit to.
func (t *tier) entry() string {
	if t.router != nil {
		return t.router.url
	}
	return t.backends[0].url
}

func (t *tier) stop() {
	if t.router != nil {
		t.router.stop()
	}
	for _, b := range t.backends {
		b.stop()
	}
}

// usage is a point-in-time reading of the tier's processes.
type usage struct {
	cpuTicks int64 // user+sys clock ticks, summed
	hwmKB    int64 // peak resident set, summed
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 on every architecture the toolchain targets.
const clockTicks = 100

func (t *tier) usage() (usage, error) {
	var u usage
	for _, p := range t.procs() {
		pid := p.cmd.Process.Pid
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return u, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		rest := stat[bytes.LastIndexByte(stat, ')')+2:]
		f := strings.Fields(string(rest))
		ut, err1 := strconv.ParseInt(f[11], 10, 64)
		st, err2 := strconv.ParseInt(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return u, fmt.Errorf("parse /proc/%d/stat", pid)
		}
		u.cpuTicks += ut + st
		status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return u, err
		}
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					return u, fmt.Errorf("parse VmHWM of %d: %w", pid, err)
				}
				u.hwmKB += kb
			}
		}
	}
	return u, nil
}

// newHTTPClient keeps enough idle loopback connections for every client
// goroutine's submit, watch and fetch to reuse one.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}
}

// linkTree hard-links the regular files under src to the same places
// under dst.
func linkTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		return os.Link(path, to)
	})
}
