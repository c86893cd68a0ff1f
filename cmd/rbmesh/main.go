// Command rbmesh boots and operates a multi-process RouteBricks
// cluster on this machine: it generates (or loads) a mesh topology,
// spawns one rbrouter process per member (`rbrouter -mesh topo.json
// -mesh-id K`), supervises them, collects the cluster's egress traffic
// on the topology sink, and serves an aggregate admin API that merges
// every member's /api/v1/stats and /api/v1/mesh into one cluster
// snapshot.
//
// It is the harness the §6 failure story runs in: kill a member
// (POST /api/v1/kill), watch the survivors declare it dead and
// re-stripe their VLB matrices around it, inject traffic (POST
// /api/v1/inject) and read the delivery ledger from the collector,
// then restart the member (POST /api/v1/restart) and watch it rejoin.
//
// Usage:
//
//	rbmesh -n 3                          # boot a 3-member local mesh
//	rbmesh -n 4 -cores 2 -addr 127.0.0.1:8800
//	rbmesh -n 3 -pcap egress.pcap         # also capture every delivered frame
//	curl http://127.0.0.1:8800/api/v1/cluster        # aggregate snapshot
//	curl -X POST http://127.0.0.1:8800/api/v1/kill?id=2
//	curl -X POST 'http://127.0.0.1:8800/api/v1/inject?packets=1000'
//	curl -X POST http://127.0.0.1:8800/api/v1/restart?id=2
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"routebricks/internal/mesh"
	"routebricks/internal/netio"
	"routebricks/internal/pcap"
	"routebricks/internal/pkt"
)

// member is one supervised rbrouter process.
type member struct {
	mu      sync.Mutex
	id      int
	cmd     *exec.Cmd
	running bool
	exit    string // last exit status, "" while running
	logPath string
}

func (m *member) status() (running bool, exit string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running, m.exit
}

// launcher owns the cluster: the topology, the member processes, and
// the egress collector.
type launcher struct {
	topo     mesh.Topology
	topoPath string
	binary   string
	logDir   string
	extra    []string // extra rbrouter flags (cores, placement, ...)

	members []*member

	// Collector: every member's egress frames arrive on the sink
	// socket; the ledger below is the cluster's delivery proof, and
	// capture, when set (-pcap), records every frame it counts. Only the
	// collector goroutine writes capture and capErr, its first error.
	sink     *net.UDPConn
	capture  *pcap.Writer
	capErr   error
	collMu   sync.Mutex
	received uint64
	byNode   map[int]uint64
}

// spawn starts (or restarts) member id and watches it until exit.
func (l *launcher) spawn(id int) error {
	m := l.members[id]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return fmt.Errorf("member %d already running", id)
	}
	logf, err := os.OpenFile(m.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(l.binary, append([]string{"-mesh", l.topoPath, "-mesh-id", fmt.Sprint(id)}, l.extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	m.cmd, m.running, m.exit = cmd, true, ""
	go func() {
		err := cmd.Wait()
		logf.Close()
		m.mu.Lock()
		m.running = false
		if err != nil {
			m.exit = err.Error()
		} else {
			m.exit = "exit 0"
		}
		m.mu.Unlock()
		fmt.Printf("rbmesh: member %d exited (%s)\n", id, m.exit)
	}()
	fmt.Printf("rbmesh: member %d up (pid %d, log %s)\n", id, cmd.Process.Pid, m.logPath)
	return nil
}

// kill hard-kills member id — the failure injection for the §6 story.
func (l *launcher) kill(id int) error {
	m := l.members[id]
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.running || m.cmd == nil || m.cmd.Process == nil {
		return fmt.Errorf("member %d not running", id)
	}
	return m.cmd.Process.Kill()
}

// stopAll sends every running member SIGTERM (the graceful drain path)
// and waits for them to exit, up to the timeout.
func (l *launcher) stopAll(timeout time.Duration) {
	for _, m := range l.members {
		m.mu.Lock()
		if m.running && m.cmd != nil && m.cmd.Process != nil {
			m.cmd.Process.Signal(syscall.SIGTERM)
		}
		m.mu.Unlock()
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		alive := 0
		for _, m := range l.members {
			if running, _ := m.status(); running {
				alive++
			}
		}
		if alive == 0 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, m := range l.members {
		m.mu.Lock()
		if m.running && m.cmd != nil && m.cmd.Process != nil {
			m.cmd.Process.Kill()
		}
		m.mu.Unlock()
	}
}

// runCollector counts egress deliveries per destination-owning node:
// the dst address's second octet under the 10.d.0.0/16 convention, and
// writes each counted frame to the capture, if any. Frames arrive in
// batches straight into pool buffers (one recvmmsg per batch on the
// fast path) and the ledger lock is taken once per batch, not once per
// frame; a frame is captured before the ledger counts it, into a
// buffer, and a failed write ends the capture. The reader blocks with no
// deadline; closing the sink socket at shutdown wakes and ends it.
func (l *launcher) runCollector() {
	shard := pkt.DefaultPool.Shard(0)
	rd := netio.NewBatchReader(l.sink, netio.Config{Shard: shard})
	defer rd.Release()
	batch := pkt.NewBatch(32)
	for {
		batch.Reset()
		if _, err := rd.ReadBatch(batch); err != nil {
			return // socket closed: shutdown
		}
		now := time.Now().UnixNano()
		l.collMu.Lock()
		for _, p := range batch.Packets() {
			if len(p.Data) >= pkt.EtherHdrLen+pkt.IPv4HdrLen {
				if l.capture != nil && l.capErr == nil {
					l.capErr = l.capture.WritePacket(now, p.Data)
				}
				dst := p.IPv4().DstUint32()
				l.received++
				l.byNode[int(dst>>16)&0xFF]++
			}
		}
		l.collMu.Unlock()
		shard.PutBatch(batch)
	}
}

// collect starts the collector, capturing to a pcap file at path unless
// path is empty. The returned stop closes the sink, waits for the
// collector to end, then flushes and closes the capture, and reports the
// capture's first error; calls after the first repeat its result.
func (l *launcher) collect(path string) (stop func() error, err error) {
	var f *os.File
	var buf *bufio.Writer
	if path != "" {
		if f, err = os.Create(path); err != nil {
			return nil, err
		}
		buf = bufio.NewWriterSize(f, 1<<16)
		if l.capture, err = pcap.NewWriter(buf); err != nil {
			f.Close()
			return nil, err
		}
	}
	done := make(chan struct{})
	go func() {
		l.runCollector()
		close(done)
	}()
	return sync.OnceValue(func() error {
		l.sink.Close()
		<-done
		if f == nil {
			return nil
		}
		return cmp.Or(l.capErr, buf.Flush(), f.Close())
	}), nil
}

// collectorCounts snapshots the delivery ledger.
func (l *launcher) collectorCounts() (uint64, map[int]uint64) {
	l.collMu.Lock()
	defer l.collMu.Unlock()
	by := make(map[int]uint64, len(l.byNode))
	for k, v := range l.byNode {
		by[k] = v
	}
	return l.received, by
}

// findRBRouter locates the rbrouter binary: an explicit -rbrouter flag,
// a sibling of this executable, or PATH.
func findRBRouter(explicit string) (string, error) {
	if explicit != "" {
		return exec.LookPath(explicit)
	}
	if self, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(self), "rbrouter")
		if _, err := os.Stat(sib); err == nil {
			return sib, nil
		}
	}
	return exec.LookPath("rbrouter")
}

func run() error {
	var (
		n         = flag.Int("n", 3, "cluster size (members to spawn)")
		topoPath  = flag.String("topo", "", "use this topology file instead of generating one")
		binary    = flag.String("rbrouter", "", "rbrouter binary (default: sibling of this executable, then $PATH)")
		addr      = flag.String("addr", "127.0.0.1:8800", "serve the aggregate cluster API on this address")
		logDir    = flag.String("logdir", "", "member log directory (default: a fresh temp dir)")
		cores     = flag.Int("cores", 1, "datapath cores per member, each owning one SO_REUSEPORT ingress socket (passed through)")
		placement = flag.String("placement", "parallel", "per-member core allocation (passed through to rbrouter)")
		flowlets  = flag.Bool("flowlets", true, "flowlet reordering avoidance (passed through)")
		heartbeat = flag.Int("heartbeat-ms", 0, "heartbeat interval override for a generated topology")
		deadAfter = flag.Int("dead-ms", 0, "dead-after override for a generated topology")
		wireFall  = flag.Bool("wire-fallback", false, "force the per-packet syscall path in members (passed through)")
		pcapPath  = flag.String("pcap", "", "capture every frame the sink collector counts to this pcap file")
	)
	flag.Parse()

	bin, err := findRBRouter(*binary)
	if err != nil {
		return fmt.Errorf("rbrouter binary not found (build it or pass -rbrouter): %w", err)
	}
	dir := *logDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "rbmesh-"); err != nil {
			return err
		}
	}

	// The collector socket first: a generated topology's sink points at
	// it, so member egress is countable from the first packet.
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer sink.Close()
	sink.SetReadBuffer(4 << 20)

	var topo mesh.Topology
	tp := *topoPath
	if tp == "" {
		if topo, err = mesh.GenerateLocal(*n); err != nil {
			return err
		}
		topo.HeartbeatMs, topo.DeadAfterMs = *heartbeat, *deadAfter
		if *deadAfter > 0 {
			topo.SuspectAfterMs = *deadAfter / 3
		}
		topo.Sink = sink.LocalAddr().String()
		tp = filepath.Join(dir, "topo.json")
		if err := topo.WriteFile(tp); err != nil {
			return err
		}
	} else if topo, err = mesh.LoadTopology(tp); err != nil {
		return err
	}

	l := &launcher{
		topo:     topo,
		topoPath: tp,
		binary:   bin,
		logDir:   dir,
		extra: []string{
			"-cores", fmt.Sprint(*cores),
			"-placement", *placement,
			fmt.Sprintf("-flowlets=%v", *flowlets),
			fmt.Sprintf("-wire-fallback=%v", *wireFall),
		},
		sink:   sink,
		byNode: make(map[int]uint64),
	}
	for i := range topo.Members {
		l.members = append(l.members, &member{id: i, logPath: filepath.Join(dir, fmt.Sprintf("member-%d.log", i))})
	}
	stopCollector, err := l.collect(*pcapPath)
	if err != nil {
		return err
	}
	// Error paths too end the collector before the capture closes.
	defer stopCollector()

	for i := range l.members {
		if err := l.spawn(i); err != nil {
			l.stopAll(2 * time.Second)
			return fmt.Errorf("spawn member %d: %w", i, err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		l.stopAll(2 * time.Second)
		return err
	}
	srv := &http.Server{Handler: newMeshMux(l)}
	go srv.Serve(ln)
	fmt.Printf("rbmesh: %d members, topology %s\n", len(topo.Members), tp)
	fmt.Printf("rbmesh: cluster API http://%s/api/v1/{cluster,kill,restart,inject}\n", ln.Addr())

	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, os.Interrupt)
	<-term
	fmt.Println("rbmesh: signal received, stopping members")
	srv.Close()
	l.stopAll(5 * time.Second)
	// Once the collector has ended, the capture holds every frame the
	// ledger counted.
	err = stopCollector()
	received, _ := l.collectorCounts()
	fmt.Printf("rbmesh: done — collector received %d egress frames\n", received)
	return err
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rbmesh:", err)
		os.Exit(1)
	}
}
