package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverFlags are the flags cqa-serve runs with besides -addr: the
// defaults (flat evaluation; no -shards, -cluster or -wal, so no flush
// policy applies) with per-request logging off.
var serverFlags = []string{"-quiet"}

// child is a running cqa-serve process.
type child struct {
	cmd  *exec.Cmd
	base string
	// admin carries set-up and /metrics traffic on a connection of its
	// own, so it never takes one of the load's two connections.
	admin *http.Client
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild starts the server and waits until it answers /healthz.
func startChild(bin string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, serverFlags...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, admin: &http.Client{Transport: &http.Transport{Proxy: nil}}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.admin.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("server at %s not healthy after 30s", addr)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop terminates the server and waits for it to exit.
func (c *child) stop() {
	if c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait() // the exit status of a stopped server carries nothing
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	c.admin.CloseIdleConnections()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// put uploads a database.
func (c *child) put(name, text string) error {
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/db/"+name, strings.NewReader(text))
	if err != nil {
		return err
	}
	resp, err := c.admin.Do(req)
	if err != nil {
		return fmt.Errorf("upload %s: %w", name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // only quoted in the error below
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// waitReady polls /readyz until it reports ready.
func (c *child) waitReady(ctx context.Context) error {
	for {
		resp, err := c.admin.Get(c.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for connection reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server not ready: %w", ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// scrape reads the unlabeled counters of /metrics.
func (c *child) scrape() (map[string]float64, error) {
	resp, err := c.admin.Get(c.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// cpuTicks returns the process's user+system CPU time in clock ticks
// (fields 14 and 15 of /proc/<pid>/stat).
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are plain.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return u + s, nil
}

// clockTick is the kernel's USER_HZ, 100 on every mainstream Linux
// architecture.
const clockTick = 10 * time.Millisecond

// peakRSSMB returns VmHWM, the peak resident set, in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
