package main

import (
	"bufio"
	"encoding/json"
	"fmt"
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

// server is one running rmserve child process.
type server struct {
	cmd    *exec.Cmd
	exited chan error // receives the child's exit status once
	base   string     // http://127.0.0.1:PORT
	log    *tailBuffer
	setup  time.Duration // process start until /info first answered 200
}

// tailBuffer keeps the last few KiB a child wrote, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
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
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// setupTimeout bounds one server start.
const setupTimeout = 60 * time.Second

// startServer launches rmserve with args and waits until /info answers 200.
// The child gets SIGKILL if the benchmark dies first; stop ends it otherwise.
func startServer(bin string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, log: &tailBuffer{}, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	s.cmd.Stdout = s.log
	s.cmd.Stderr = s.log
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	probe := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rmserve: %w", err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	for {
		resp, err := probe.Get(s.base + "/info")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				s.setup = time.Since(start)
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("rmserve exited during setup: %v\n%s", err, s.log)
		case <-time.After(250 * time.Microsecond):
		}
		if time.Since(start) > setupTimeout {
			s.stop()
			return nil, fmt.Errorf("rmserve not ready after %v\n%s", setupTimeout, s.log)
		}
	}
}

// stop kills the child and waits until it has exited.
func (s *server) stop() {
	if s == nil || s.exited == nil {
		return
	}
	_ = s.cmd.Process.Kill() // an already-exited child is fine
	<-s.exited
	s.exited = nil
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// userHZ is the kernel's clock-tick rate for /proc CPU times, fixed at 100
// on Linux.
const userHZ = 100

// cpuTime reads the child's user plus system CPU time from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	var ticks int64
	for _, field := range f[11:13] {
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// stats is the subset of rmserve's /stats the benchmark reads.
type stats struct {
	Inferences       int64 `json:"inferences"`
	VectorReads      int64 `json:"vectorReads"`
	BytesTransferred int64 `json:"bytesTransferred"`
	Lookups          int64 `json:"lookups"`
	DedupHits        int64 `json:"dedupHits"`
	EVCacheHits      int64 `json:"evCacheHits"`
	EVCacheMisses    int64 `json:"evCacheMisses"`
	EVCacheEvictions int64 `json:"evCacheEvictions"`
	Shards           []struct {
		Shard      int    `json:"shard"`
		Inferences int64  `json:"inferences"`
		SimClock   string `json:"simClock"`
	} `json:"shards"`
}

func (s *server) stats(c *http.Client) (*stats, error) {
	resp, err := c.Get(s.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	var st stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// simQPS is the simulated throughput between two /stats snapshots, summed
// over shards: each shard's served inferences over its sim-clock advance.
func simQPS(before, after *stats) (float64, error) {
	if len(before.Shards) != len(after.Shards) {
		return 0, fmt.Errorf("shard count changed: %d -> %d", len(before.Shards), len(after.Shards))
	}
	var qps float64
	for i := range after.Shards {
		t0, err := time.ParseDuration(before.Shards[i].SimClock)
		if err != nil {
			return 0, err
		}
		t1, err := time.ParseDuration(after.Shards[i].SimClock)
		if err != nil {
			return 0, err
		}
		if dt := t1 - t0; dt > 0 {
			qps += float64(after.Shards[i].Inferences-before.Shards[i].Inferences) / dt.Seconds()
		}
	}
	return qps, nil
}
