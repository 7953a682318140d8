package main

// Daemon lifecycle: the harness builds the real affidavitd binary, spawns
// one fresh process per workload on a free loopback port with fresh state
// directories, waits for /healthz, and owns its death on every exit path.

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Reference configuration of every benchmarked daemon. Workers and
// job-workers are pinned so a run does not depend on the host's core
// count; every other flag stays at its product default (tracing ring of
// 128, durable journals, blob and result stores on).
var daemonFlags = []string{"-seed", "1", "-workers", "2", "-job-workers", "2"}

// buildFlags is how the benchmarked binary is compiled — the build CI
// verifies.
var buildFlags = []string{"-pgo=default.pgo"}

// opTimeout bounds every single HTTP operation and every readiness wait.
const opTimeout = 60 * time.Second

// buildDaemon compiles cmd/affidavitd into outDir and reports how long
// the build took (reported as affidavitd.build_s, never part of setup_s).
func buildDaemon(root, outDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(outDir, "affidavitd")
	args := append(append([]string{"build"}, buildFlags...), "-o", bin, "./cmd/affidavitd")
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return bin, time.Since(start), nil
}

// spawner starts child processes from one goroutine locked to its OS
// thread for the life of the harness. Pdeathsig is delivered when the
// *thread* that forked the child exits, so forking from an ordinary
// goroutine could kill a daemon early; forking from a thread that never
// exits means the kernel kills every daemon exactly when the harness
// dies — including a SIGKILL of the harness that no handler sees.
var spawner = struct {
	once sync.Once
	reqs chan spawnReq
}{reqs: make(chan spawnReq)}

type spawnReq struct {
	cmd  *exec.Cmd
	done chan error
}

func spawn(cmd *exec.Cmd) error {
	spawner.once.Do(func() {
		go func() {
			runtime.LockOSThread()
			for req := range spawner.reqs {
				req.done <- req.cmd.Start()
			}
		}()
	})
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	req := spawnReq{cmd: cmd, done: make(chan error, 1)}
	spawner.reqs <- req
	return <-req.done
}

// live tracks running daemons and scratch directories so cleanup can
// reach them from a signal handler or a recovered panic.
var live struct {
	mu      sync.Mutex
	daemons map[*daemon]struct{}
	dirs    map[string]struct{}
}

func trackDir(dir string) {
	live.mu.Lock()
	defer live.mu.Unlock()
	if live.dirs == nil {
		live.dirs = make(map[string]struct{})
	}
	live.dirs[dir] = struct{}{}
}

// removeDir deletes a scratch directory the harness created.
func removeDir(dir string) {
	os.RemoveAll(dir)
	live.mu.Lock()
	delete(live.dirs, dir)
	live.mu.Unlock()
}

// cleanupAll kills every live daemon and removes every scratch directory.
// It is idempotent; main defers it and the signal handler calls it.
func cleanupAll() {
	live.mu.Lock()
	ds := make([]*daemon, 0, len(live.daemons))
	for d := range live.daemons {
		ds = append(ds, d)
	}
	dirs := make([]string, 0, len(live.dirs))
	for dir := range live.dirs {
		dirs = append(dirs, dir)
	}
	live.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		removeDir(dir)
	}
}

// daemon is one running affidavitd process.
type daemon struct {
	bin     string
	jobsDir string
	extra   []string // flags beyond the reference configuration
	base    string   // http://127.0.0.1:port
	cmd     *exec.Cmd
	stderr  *tailBuffer
	waited  chan struct{}
}

// tailBuffer keeps the last few KiB of the daemon's stderr for failure
// reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8192; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns bin on a free port over jobsDir and waits until
// /healthz answers. It returns the spawn→ready time. A port lost to a
// race between probing and binding is retried with a new one.
func startDaemon(bin, jobsDir string, extra ...string) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		d := &daemon{bin: bin, jobsDir: jobsDir, extra: extra, base: "http://" + addr,
			stderr: &tailBuffer{}, waited: make(chan struct{})}
		args := append([]string{"-addr", addr}, daemonFlags...)
		args = append(args, "-jobs-dir", jobsDir)
		args = append(args, extra...)
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stderr = d.stderr
		start := time.Now()
		if err := spawn(d.cmd); err != nil {
			return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
		}
		go func() {
			d.cmd.Wait()
			close(d.waited)
		}()
		live.mu.Lock()
		if live.daemons == nil {
			live.daemons = make(map[*daemon]struct{})
		}
		live.daemons[d] = struct{}{}
		live.mu.Unlock()
		if err := d.waitReady(); err != nil {
			lastErr = fmt.Errorf("%w\n%s", err, d.stderr.String())
			d.kill()
			continue
		}
		return d, time.Since(start), nil
	}
	return nil, 0, lastErr
}

// waitReady polls /healthz until it answers 200, the process exits, or
// the readiness budget runs out.
func (d *daemon) waitReady() error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.waited:
			return fmt.Errorf("affidavitd exited before becoming ready")
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("affidavitd not ready within %v", opTimeout)
}

// kill SIGKILLs the daemon and waits until the process is gone. Safe to
// call twice.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
	}
	<-d.waited
	live.mu.Lock()
	delete(live.daemons, d)
	live.mu.Unlock()
}

// restart SIGKILLs the daemon and starts a new process over the same
// populated directories, returning the kill→ready time.
func (d *daemon) restart() (*daemon, time.Duration, error) {
	start := time.Now()
	d.kill()
	nd, _, err := startDaemon(d.bin, d.jobsDir, d.extra...)
	return nd, time.Since(start), err
}

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 on every
// supported architecture.
const clockTick = 100

// cpuSeconds is utime+stime of the daemon from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, i.e. 12 and 13 after the ") ".
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB is the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			// The daemon unlinks blob temp files while we walk.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err == nil {
				total += info.Size()
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		return nil
	})
	return total, err
}
