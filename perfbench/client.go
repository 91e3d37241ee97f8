package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to troutd. The timed traffic
// goes through this minimal client rather than net/http so the generator
// spends as little of the shared CPU as possible and owns exactly one
// socket per stream.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// post sends one POST and returns the status and the response body.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if _, err := c.c.Write(c.req); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// readResponse parses a status line, headers, and a Content-Length or
// chunked body.
func (c *conn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	f := bytes.Fields(line)
	if len(f) < 2 {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(f[1]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, _ := bytes.Cut(h, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	if chunked {
		var body []byte
		for {
			h, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			sz, err := strconv.ParseInt(string(bytes.TrimSpace(h)), 16, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", h)
			}
			if sz == 0 {
				if _, err := c.br.ReadSlice('\n'); err != nil {
					return 0, nil, err
				}
				return status, body, nil
			}
			start := len(body)
			body = append(body, make([]byte, sz+2)...)
			if _, err := io.ReadFull(c.br, body[start:]); err != nil {
				return 0, nil, err
			}
			body = body[:len(body)-2]
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	body := make([]byte, length)
	_, err = io.ReadFull(c.br, body)
	return status, body, err
}

// daemon is a running troutd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  string
	done chan error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon launches troutd with its default flags plus the bundle and
// listen address, and waits until it answers /ready. Its output goes to
// logPath (/dev/null in timed runs: the access log is still encoded and
// written, but no page-cache writeback competes with the measurement).
func startDaemon(bin, bundle, logPath string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-bundle", bundle, "-addr", addr}
	lf, err := os.OpenFile(logPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// troutd dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start troutd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, log: logPath, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait(); lf.Close() }()
	running.Lock()
	running.set[d] = true
	running.Unlock()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /ready until it answers 200.
func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	cl := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("troutd exited before ready: %v (log %s)", err, d.log)
		default:
		}
		resp, err := cl.Get("http://" + d.addr + "/ready")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("troutd not ready after %v (log %s)", limit, d.log)
}

// running holds the daemons not yet stopped, for the signal handler.
var running = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// stopAll stops every daemon still running.
func stopAll() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.set))
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// stop sends SIGTERM, waits for the drain, and kills troutd if it outlives
// the grace period.
func (d *daemon) stop() {
	running.Lock()
	delete(running.set, d)
	running.Unlock()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		d.done <- <-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procSample is troutd's CPU time and peak RSS at one instant.
type procSample struct {
	cpu    time.Duration // user + system
	hwmKiB int64
}

// clockTicks is USER_HZ, fixed at 100 on Linux for /proc accounting.
const clockTicks = 100

func sampleProc(pid int) (procSample, error) {
	var ps procSample
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return ps, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return ps, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, errors.New("bad cpu fields in /proc stat")
	}
	ps.cpu = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				ps.hwmKiB, _ = strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return ps, nil
}

// metricsText is one /metrics scrape: series (name plus rendered labels,
// exactly as exposed) → value.
type metricsText map[string]float64

func (d *daemon) scrape() (metricsText, error) {
	resp, err := http.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (metricsText, error) {
	m := metricsText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sum adds every series of metric name whose labels contain all of want
// (each a rendered `key="value"` pair).
func (m metricsText) sum(name string, want ...string) float64 {
	var s float64
	for k, v := range m {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, w := range want {
			if !strings.Contains(labels, w) {
				ok = false
				break
			}
		}
		if ok {
			s += v
		}
	}
	return s
}

// minus returns m − prev, series by series.
func (m metricsText) minus(prev metricsText) metricsText {
	d := make(metricsText, len(m))
	for k, v := range m {
		d[k] = v - prev[k]
	}
	return d
}

// add accumulates d into m, series by series.
func (m metricsText) add(d metricsText) {
	for k, v := range d {
		m[k] += v
	}
}

// hostCPU is the machine-wide CPU time from /proc/stat, in USER_HZ ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var h hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("/proc/stat: %w", err)
		}
		if i == 8 || i == 9 { // guest time is already counted in user
			continue
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealShare is the share of CPU time stolen between h0 and h.
func (h hostCPU) stealShare(h0 hostCPU) float64 {
	if h.total <= h0.total {
		return 0
	}
	return float64(h.steal-h0.steal) / float64(h.total-h0.total)
}
