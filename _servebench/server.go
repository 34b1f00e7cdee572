package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHZ is the unit of utime and stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const userHZ = 100

// listenMarker precedes the bound address in the line dplearn-serve
// prints once WAL recovery is done and its listener is bound.
const listenMarker = " on http://"

// server is one dplearn-serve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	// setup is the time from exec to the published listen address.
	setup time.Duration
	// done receives the process's exit once its stderr is drained.
	done    chan error
	stopped bool

	mu  sync.Mutex
	log []string
}

// boot execs the server with WALs under walDir and waits until it
// publishes its listen address.
func boot(bin string, w *workload, walDir string) (*server, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-tenants", w.tenantDecl(),
		"-wal-dir", walDir,
		"-grid", strconv.Itoa(w.grid))
	// The server must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	ready := make(chan struct{})
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		published := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, listenMarker); i >= 0 && !published {
				s.setup = time.Since(start)
				s.addr, _, _ = strings.Cut(line[i+len(listenMarker):], " ")
				published = true
				close(ready)
			}
			s.mu.Lock()
			s.log = append(s.log, line)
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr) // drain past an over-long line so Wait can return
		if !published {
			close(ready)
		}
		s.done <- cmd.Wait()
	}()
	select {
	case <-ready:
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server did not publish its address within 120s:\n%s", s.logTail())
	}
	if s.addr == "" {
		err := <-s.done
		s.stopped = true
		return nil, fmt.Errorf("server exited (%v) before listening:\n%s", err, s.logTail())
	}
	return s, nil
}

func (s *server) base() string { return "http://" + s.addr }

// stop drains the server with SIGINT, as an operator would, and returns
// its exit status: dplearn-serve exits non-zero when the ledger
// cross-check it runs at drain fails.
func (s *server) stop() error {
	if s.stopped {
		return nil
	}
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		s.kill()
		return fmt.Errorf("interrupt server: %w", err)
	}
	select {
	case err := <-s.done:
		s.stopped = true
		if err != nil {
			return fmt.Errorf("server exit: %w\n%s", err, s.logTail())
		}
		return nil
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("server did not drain within 60s")
	}
}

// kill ends the server without a drain and waits for it to exit.
func (s *server) kill() {
	if s.stopped {
		return
	}
	_ = s.cmd.Process.Kill() // an already-exited process is fine
	<-s.done
	s.stopped = true
}

func (s *server) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := s.log
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// cpuTicks returns the server's utime+stime in USER_HZ ticks.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// peakRSSMB returns the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the server's /metrics exposition into sample values keyed
// by `name` or `name{labels}` exactly as exposed.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() // read-only; a close error loses nothing
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		end := strings.IndexByte(line, ' ')
		if end < 0 {
			continue
		}
		if k := strings.IndexByte(line, '{'); k >= 0 && k < end {
			if c := strings.IndexByte(line[k:], '}'); c >= 0 {
				end = k + c + 1
			}
		}
		f := strings.Fields(line[end:])
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			continue
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// sumFamily adds every sample of the metric family name.
func sumFamily(samples map[string]float64, name string) float64 {
	var s float64
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
