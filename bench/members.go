package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"routebricks/internal/mesh"
	"routebricks/internal/stats"
)

// Per-phase timeouts: a hung member fails the run instead of stalling it.
const (
	readyTimeout = 15 * time.Second
	stopTimeout  = 5 * time.Second
	httpTimeout  = 2 * time.Second
)

var errMemberExited = errors.New("member exited during start-up")

// groups tracks every child process group alive right now, so that any
// exit path — error return, signal, watchdog — can kill them all.
var groups struct {
	sync.Mutex
	pids map[int]bool
}

func trackGroup(pid int, alive bool) {
	groups.Lock()
	defer groups.Unlock()
	if groups.pids == nil {
		groups.pids = make(map[int]bool)
	}
	if alive {
		groups.pids[pid] = true
	} else {
		delete(groups.pids, pid)
	}
}

func killAllGroups() {
	groups.Lock()
	defer groups.Unlock()
	for pid := range groups.pids {
		syscall.Kill(-pid, syscall.SIGKILL)
	}
}

// buildRouter compiles cmd/rbrouter from the checkout the benchmark
// runs in, into the checkout's own build directory.
func buildRouter(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "rbrouter")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rbrouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/rbrouter: %v\n%s", err, out)
	}
	return bin, nil
}

type member struct {
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{} // closed once Wait has returned
}

// memberMesh is one running set of rbrouter processes, driven only
// through what an operator has: the topology file, the ext UDP ports,
// the admin API, signals and /proc.
type memberMesh struct {
	topo    mesh.Topology
	dir     string
	members []*member
	client  *http.Client
}

// startMesh spawns an n-member mesh whose egress goes to sink, waits
// until every member has heard from every peer, and reports how long
// that took. A member dying during start-up is most likely a bind race
// (GenerateLocal finds ports by binding and closing), so that gets one
// retry on a fresh topology.
func startMesh(bin, workDir string, n int, sink string) (*memberMesh, time.Duration, error) {
	m, d, err := startMeshOnce(bin, workDir, n, sink)
	if errors.Is(err, errMemberExited) {
		fmt.Fprintf(os.Stderr, "bench: %v; retrying once on a fresh topology\n", err)
		m, d, err = startMeshOnce(bin, workDir, n, sink)
	}
	return m, d, err
}

func startMeshOnce(bin, workDir string, n int, sink string) (*memberMesh, time.Duration, error) {
	topo, err := mesh.GenerateLocal(n)
	// GenerateLocal finds each port by binding and closing, so the kernel
	// may hand the same one out twice; such a topology cannot come up.
	for tries := 0; err == nil && !distinctAddrs(topo) && tries < 5; tries++ {
		topo, err = mesh.GenerateLocal(n)
	}
	if err != nil {
		return nil, 0, err
	}
	topo.Sink = sink
	// The benchmark saturates a 2-CPU host, and a heartbeat delayed past
	// the default 1.2 s would re-stripe the mesh mid-run. Failure
	// detection is not what is measured here, so it gets a long fuse;
	// a re-stripe still fails the run (see runWire).
	topo.SuspectAfterMs, topo.DeadAfterMs = 5000, 20000
	dir, err := os.MkdirTemp(workDir, "mesh-")
	if err != nil {
		return nil, 0, err
	}
	m := &memberMesh{topo: topo, dir: dir, client: &http.Client{Timeout: httpTimeout}}
	topoPath := filepath.Join(dir, "topo.json")
	if err := topo.WriteFile(topoPath); err != nil {
		m.stop(false)
		return nil, 0, err
	}
	start := time.Now()
	for id := 0; id < n; id++ {
		if err := m.spawn(bin, topoPath, id); err != nil {
			m.stop(true)
			return nil, 0, err
		}
	}
	if err := m.waitReady(); err != nil {
		m.stop(true)
		return nil, 0, err
	}
	return m, time.Since(start), nil
}

func distinctAddrs(t mesh.Topology) bool {
	seen := make(map[string]bool)
	for _, mb := range t.Members {
		// UDP and TCP ports are separate spaces; only the three UDP
		// addresses can collide with each other.
		for _, a := range []string{mb.Data, mb.Ctrl, mb.Ext} {
			if seen[a] {
				return false
			}
			seen[a] = true
		}
	}
	return true
}

func (m *memberMesh) spawn(bin, topoPath string, id int) error {
	logPath := filepath.Join(m.dir, fmt.Sprintf("member%d.log", id))
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-mesh", topoPath, "-mesh-id", strconv.Itoa(id), "-cores", "1")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn member %d: %w", id, err)
	}
	trackGroup(cmd.Process.Pid, true)
	mb := &member{cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(mb.exited)
	}()
	m.members = append(m.members, mb)
	return nil
}

func (m *memberMesh) getJSON(id int, path string, v any) error {
	resp, err := m.client.Get("http://" + m.topo.Members[id].API + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("member %d GET %s: HTTP %d", id, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls every member's /api/v1/mesh until it shows all peers
// alive and heard from at least once: peers start out presumed alive,
// so without the second condition a member would count as ready before
// its neighbours have bound their sockets.
func (m *memberMesh) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for id := 0; id < len(m.members); {
		for dead, mb := range m.members {
			select {
			case <-mb.exited:
				return fmt.Errorf("%w: member %d: %s", errMemberExited, dead, m.logTail(dead))
			default:
			}
		}
		var st mesh.Status
		if err := m.getJSON(id, "/api/v1/mesh", &st); err == nil && meshConverged(st) {
			id++
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("member %d not ready after %v: %s", id, readyTimeout, m.logTail(id))
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func meshConverged(st mesh.Status) bool {
	if st.Alive != st.Members || len(st.Peers) != st.Members {
		return false
	}
	for _, p := range st.Peers {
		if p.ID != st.Self && (p.State != mesh.StateAlive.String() || p.Observed == 0) {
			return false
		}
	}
	return true
}

// nodeStats fetches every member's /api/v1/stats. A member in mesh mode
// serves a one-element array: itself.
func (m *memberMesh) nodeStats() ([]stats.NodeStats, error) {
	out := make([]stats.NodeStats, len(m.members))
	for id := range m.members {
		var doc []stats.NodeStats
		if err := m.getJSON(id, "/api/v1/stats", &doc); err != nil {
			return nil, err
		}
		if len(doc) != 1 {
			return nil, fmt.Errorf("member %d: /api/v1/stats has %d nodes, want 1", id, len(doc))
		}
		out[id] = doc[0]
	}
	return out, nil
}

// procSample is what /proc says about the member processes: CPU summed
// over members, peak resident set as the largest member's.
type procSample struct {
	userSec, sysSec float64
	ctxSwitches     uint64
	hwmMB           float64
}

func (m *memberMesh) proc() (procSample, error) {
	var out procSample
	for _, mb := range m.members {
		s, err := readProc(mb.cmd.Process.Pid)
		if err != nil {
			return out, err
		}
		out.userSec += s.userSec
		out.sysSec += s.sysSec
		out.ctxSwitches += s.ctxSwitches
		out.hwmMB = max(out.hwmMB, s.hwmMB)
	}
	return out, nil
}

// userHz is the unit of the CPU times in /proc/<pid>/stat. Linux has
// fixed USER_HZ at 100 on every architecture Go runs on.
const userHz = 100

func readProc(pid int) (procSample, error) {
	var out procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	raw, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return out, err
	}
	// The command name sits in parentheses and may hold spaces; fields
	// are counted from the closing one. utime and stime are the 14th and
	// 15th fields of the line, so the 12th and 13th after the name.
	rest := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(rest) < 13 {
		return out, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseUint(rest[11], 10, 64)
	stime, _ := strconv.ParseUint(rest[12], 10, 64)
	out.userSec, out.sysSec = float64(utime)/userHz, float64(stime)/userHz

	hwm, _, err := statusFields(filepath.Join(dir, "status"))
	if err != nil {
		return out, err
	}
	out.hwmMB = float64(hwm) / 1024
	// Context switches are kept per thread; the process figure is the
	// sum over its tasks.
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return out, err
	}
	for _, t := range tasks {
		if _, sw, err := statusFields(t); err == nil { // a thread may exit between Glob and read
			out.ctxSwitches += sw
		}
	}
	return out, nil
}

// statusFields reads VmHWM (kB) and the sum of voluntary and
// involuntary context switches from a /proc status file.
func statusFields(path string) (hwmKB, ctxSwitches uint64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(val)
		if len(f) == 0 {
			continue
		}
		n, _ := strconv.ParseUint(f[0], 10, 64)
		switch key {
		case "VmHWM":
			hwmKB = n
		case "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches":
			ctxSwitches += n
		}
	}
	return hwmKB, ctxSwitches, nil
}

// stop ends every member: SIGTERM for the graceful drain, SIGKILL to
// the whole process group for whatever is left after stopTimeout. With
// keep set the logs are printed and the directory stays for inspection;
// otherwise it is removed.
func (m *memberMesh) stop(keep bool) {
	for _, mb := range m.members {
		mb.cmd.Process.Signal(syscall.SIGTERM)
	}
	deadline := time.Now().Add(stopTimeout)
	for id, mb := range m.members {
		select {
		case <-mb.exited:
		case <-time.After(time.Until(deadline)):
			fmt.Fprintf(os.Stderr, "bench: member %d ignored SIGTERM for %v, killing\n", id, stopTimeout)
			keep = true
		}
		syscall.Kill(-mb.cmd.Process.Pid, syscall.SIGKILL)
		<-mb.exited
		trackGroup(mb.cmd.Process.Pid, false)
	}
	if !keep {
		os.RemoveAll(m.dir)
		return
	}
	fmt.Fprintf(os.Stderr, "bench: keeping %s\n", m.dir)
	for id := range m.members {
		fmt.Fprintf(os.Stderr, "--- member %d log ---\n%s\n", id, m.logTail(id))
	}
}

func (m *memberMesh) logTail(id int) string {
	raw, err := os.ReadFile(m.members[id].logPath)
	if err != nil {
		return err.Error()
	}
	if len(raw) > 2048 {
		raw = raw[len(raw)-2048:]
	}
	return strings.TrimSpace(string(raw))
}
