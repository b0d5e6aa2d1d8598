package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/flightrec"
	"repro/internal/obs"
	"repro/internal/provservice"
	"repro/internal/provstore"
)

// target is the system under test: a yprov-server the harness can
// crash and restart on the same data directory. The benchmark runs it
// as a child process; tests substitute an in-process one.
type target interface {
	// start boots the server on dataDir and returns without waiting for
	// it to answer.
	start(dataDir string) error
	// crash kills the server without any chance to flush (kill -9) and
	// waits until it is gone. A no-op when it is not running.
	crash()
	// addr is the host:port the server listens on once started.
	addr() string
	// pid identifies the process to read CPU, memory and IO from.
	pid() int
}

// Server defaults the benchmark pins in both targets. The child
// process gets them by not passing flags; the in-process target has to
// spell them out.
const (
	serverProcs        = 2
	serverSnapshot     = 256
	serverCacheEntries = 4096
	serverCacheBytes   = 64 << 20
)

// childServer runs the yprov-server binary with default flags: only
// the address and the data directory are set.
type childServer struct {
	bin     string
	logPath string
	port    int
	cmd     *exec.Cmd
}

func newChildServer(bin, logPath string) (*childServer, error) {
	// Reserve a free loopback port once; restarts reuse it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return nil, err
	}
	return &childServer{bin: bin, logPath: logPath, port: port}, nil
}

func (s *childServer) addr() string { return "127.0.0.1:" + strconv.Itoa(s.port) }

func (s *childServer) pid() int {
	if s.cmd == nil {
		return 0
	}
	return s.cmd.Process.Pid
}

func (s *childServer) start(dataDir string) error {
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(s.bin, "-addr", s.addr(), "-data-dir", dataDir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the harness, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	s.cmd = cmd
	return nil
}

func (s *childServer) crash() {
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait() // reaps the child; the error is the kill signal itself
	s.cmd = nil
}

// inprocServer serves the same stack from this process over a loopback
// socket, configured like the binary's defaults. Its crash is as
// abrupt as one process allows: connections are cut and the listener
// closed at once, with no drain.
type inprocServer struct {
	srv   *httptest.Server
	store *provstore.Store
	rec   *flightrec.Recorder
}

func (s *inprocServer) addr() string { return strings.TrimPrefix(s.srv.URL, "http://") }
func (s *inprocServer) pid() int     { return os.Getpid() }

func (s *inprocServer) start(dataDir string) error {
	store, err := provstore.Open(dataDir, provstore.Durability{Fsync: true, SnapshotEvery: serverSnapshot, Shards: serverProcs})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	store.RegisterObs(reg)
	s.rec = flightrec.New(flightrec.Config{TraceRing: 256, SampleEvery: 16})
	s.store = store
	s.srv = httptest.NewServer(provservice.New(store,
		provservice.WithRegistry(reg),
		provservice.WithFlightRecorder(s.rec),
		provservice.WithReadCache(serverCacheEntries, serverCacheBytes)))
	return nil
}

func (s *inprocServer) crash() {
	if s.srv == nil {
		return
	}
	s.srv.CloseClientConnections()
	s.srv.Close()
	s.rec.Close()
	// Closing the store is what releases the data-directory lock; the
	// journal was fsynced before every acknowledgement, so this flushes
	// nothing a crash would have lost.
	_ = s.store.Close()
	s.srv = nil
}

// waitHealthy polls /healthz every interval, each time on a fresh
// connection, until the server answers 200. Between polls it sleeps,
// or, given a meter, runs the reference task.
func waitHealthy(addr string, interval, timeout time.Duration, ref *refMeter) error {
	deadline := time.Now().Add(timeout)
	head := getHead("/healthz")
	for {
		if c, err := dial(addr); err == nil {
			r, err := c.roundTrip(head, nil)
			c.close()
			if err == nil && r.status == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v", addr, timeout)
		}
		if ref != nil {
			ref.busyFor(interval)
		} else {
			time.Sleep(interval)
		}
	}
}

// serverStats is the part of /api/v0/stats the harness reads.
type serverStats struct {
	Nodes      int
	Rels       int
	Durability struct {
		Snapshots  uint64 `json:"snapshots"`
		QueueDepth int64  `json:"commit_queue_depth"`
	} `json:"durability"`
}

func fetchStats(c *conn) (serverStats, error) {
	var st serverStats
	r, err := c.get("/api/v0/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(r.body, &st)
}

// scrape reads GET /metrics into a lookup by family name.
func scrape(c *conn) (samples, error) {
	r, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseSamples(r.body)
}

type samples []obs.Sample

// value sums the series of family whose labels include every
// key=value pair in match ("route", "documents/lineage", ...).
func (s samples) value(family string, match ...string) float64 {
	var total float64
next:
	for _, sm := range s {
		if sm.Name != family {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if sm.Labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += sm.Value
	}
	return total
}

// --- /proc readers ---------------------------------------------------

// clockTick is USER_HZ, the unit of /proc CPU times: 100 on every
// Linux platform Go supports.
const clockTick = 100

// procCPU returns utime+stime of pid in seconds.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat CPU fields", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// procField reads the integer after "key:" in a key-per-line proc file.
func procField(path, key string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, key)
}

// resetPeakRSS restarts pid's VmHWM from its current RSS, so the peak
// read at the end of the window belongs to the window and not to the
// preload. Where the kernel refuses, the peak covers the server's
// whole life instead; that is the same on every run in that
// environment.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// hostCPU returns the steal and total jiffies of the machine.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			// A segment compacted away between listing and stat is not
			// an error; quiesced directories never hit this.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
