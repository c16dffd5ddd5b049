package main

import (
	"context"
	"encoding/json"
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
)

// member is one server process and the listeners the benchmark holds
// for it across restarts, so its address never changes.
type member struct {
	id               string
	api, ctl         *os.File
	url, ctlURL      string
	dataDir, logPath string
	cmd              *exec.Cmd
	exited           chan struct{}
}

func newMember(id, work string) (*member, error) {
	m := &member{id: id, dataDir: filepath.Join(work, "data", id), logPath: filepath.Join(work, id+".log")}
	var err error
	if m.api, m.url, err = listen(); err != nil {
		return nil, err
	}
	if m.ctl, m.ctlURL, err = listen(); err != nil {
		return nil, err
	}
	return m, nil
}

// listen binds a loopback port and returns its file, which the server
// process inherits, and its base URL.
func listen() (*os.File, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	defer ln.Close()
	f, err := ln.(*net.TCPListener).File()
	if err != nil {
		return nil, "", err
	}
	return f, "http://" + ln.Addr().String(), nil
}

// start spawns the server process with the member's listeners on fds
// 3 and 4. It dies with the benchmark (Pdeathsig) if stop never runs.
func (m *member) start(args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	logf, err := os.OpenFile(m.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	cmd := newCmd(self, append([]string{"serve"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.ExtraFiles = []*os.File{m.api, m.ctl}
	if err := cmd.Start(); err != nil {
		return err
	}
	m.cmd, m.exited = cmd, make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(m.exited)
	}()
	return nil
}

// stop kills the server process and waits until it has ended.
func (m *member) stop() {
	if m.cmd == nil {
		return
	}
	_ = m.cmd.Process.Kill()
	<-m.exited
	m.cmd = nil
}

func (m *member) running() bool {
	if m.cmd == nil {
		return false
	}
	select {
	case <-m.exited:
		return false
	default:
		return true
	}
}

// waitReady blocks until GET /readyz answers 200. The listener exists
// before the process does, so the first probe simply waits in the
// accept queue until the server serves; a 503 (replication arming,
// handoff) is re-probed every 200µs.
func (m *member) waitReady(c *http.Client, deadline time.Time) error {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	go func() {
		select {
		case <-m.exited:
			cancel()
		case <-ctx.Done():
		}
	}()
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/readyz", nil)
		resp, err := c.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%s not ready (see %s): %v", m.id, m.logPath, err)
		}
		sleepFor(200 * time.Microsecond)
	}
}

// newCmd prepares a child process that is killed if the benchmark
// dies first.
func newCmd(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// resetHWM resets the process's peak resident set (VmHWM) to its
// current resident set.
func (m *member) resetHWM() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", m.cmd.Process.Pid), []byte("5"), 0)
}

// vmHWM is the process's peak resident set in kB.
func (m *member) vmHWM() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", m.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", m.cmd.Process.Pid)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// promSums scrapes a Prometheus text endpoint and sums every sample
// by metric name (labels dropped).
func promSums(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(name)] += v
	}
	return out, nil
}

// copyDir replaces dst with a copy of src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// sleepFor blocks the calling thread in nanosleep(2): on a loaded
// 2-core box it wakes far closer to the deadline than time.Sleep.
func sleepFor(d time.Duration) {
	for d > 0 {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		began := time.Now()
		if err := syscall.Nanosleep(&ts, nil); err != syscall.EINTR {
			return
		}
		d -= time.Since(began)
	}
}
