package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStats is what the benchmark measures of one program process from
// outside: wall time from exec to exit, peak resident set and CPU time.
type procStats struct {
	wall   time.Duration
	maxRSS int64 // bytes
	cpu    time.Duration
}

func statsOf(ps *os.ProcessState, wall time.Duration) procStats {
	st := procStats{wall: wall}
	if ps == nil {
		return st
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		st.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	st.cpu = ps.UserTime() + ps.SystemTime()
	return st
}

// cli runs one openbi command in the work directory and returns its
// standard output. A non-zero exit is an error carrying the command's
// standard error.
func (b *bench) cli(args ...string) ([]byte, procStats, error) {
	cmd := exec.Command(b.opts.openbi, args...)
	cmd.Dir = b.opts.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	st := statsOf(cmd.ProcessState, time.Since(t0))
	if err != nil {
		return nil, st, fmt.Errorf("openbi %s: %v: %s", args[0], err, bytes.TrimSpace(stderr.Bytes()))
	}
	return stdout.Bytes(), st, nil
}

// deriveCommand runs writeDerived in a child process. Linux reports a
// child's ru_maxrss as at least the peak RSS its parent had reached when it
// was spawned, so this process must never hold a large graph itself: every
// openbi process it starts afterwards would read as at least that large.
func (b *bench) deriveCommand(ntPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.Command(self, deriveSubcommand, ntPath).CombinedOutput()
	if err != nil {
		return fmt.Errorf("deriving the ingest sources: %v: %s", err, bytes.TrimSpace(out))
	}
	return nil
}

// vmHWM reads a live process's peak resident set from /proc.
func vmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serveProc is one running `openbi serve` with default flags.
type serveProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// startServe execs `openbi serve` on a free loopback port and waits until
// /healthz reports ready; the returned duration is exec to ready.
func (b *bench) startServe(kbPath string) (*serveProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(b.opts.work, "serve.log"))
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(b.opts.openbi, "serve", "-addr", addr, "-kb", kbPath)
	cmd.Dir = b.opts.work
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &serveProc{cmd: cmd, base: "http://" + addr, log: logf}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting openbi serve: %w", err)
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := t0.Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := hc.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		var h struct {
			Ready bool `json:"ready"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK && h.Ready {
			return s, time.Since(t0), nil
		}
	}
	s.stop()
	return nil, 0, errors.New("openbi serve did not become ready within 20s")
}

// stop sends SIGTERM, waits for the process to exit (killing it after the
// drain deadline) and returns its resource usage. The peak RSS is read from
// /proc just before the signal: the serve process is smaller than this one,
// so its ru_maxrss would report this process's peak instead (see
// deriveCommand).
func (s *serveProc) stop() (procStats, error) {
	defer s.log.Close()
	hwm, hwmErr := vmHWM(s.cmd.Process.Pid)
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("openbi serve ignored SIGTERM")
		}
	}
	st := statsOf(s.cmd.ProcessState, 0)
	st.maxRSS = hwm
	if err == nil {
		err = hwmErr
	}
	return st, err
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}
