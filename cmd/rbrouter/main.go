// Command rbrouter runs a real-I/O RouteBricks cluster on this machine:
// N router nodes in one process, meshed over actual UDP sockets, moving
// real IPv4-in-UDP frames through the same element pipelines, DIR-24-8
// lookup, and Direct-VLB/flowlet logic as the simulation — but on
// wall-clock time and OS sockets (stdlib net only).
//
// It demonstrates the programmability claim of the paper: each node's
// ingress datapath is a Click-language program loaded through
// routebricks.Load — the default is the embedded config below, and
// -config swaps in any .click file written against the standard element
// registry plus the prebound names the command supplies:
//
//	fib        LPMLookup bound to the cluster's live FIB (node d owns 10.d.0.0/16)
//	vlb        terminal Direct-VLB forwarder (MAC rewrite + mesh emit)
//	badhdr     counting drop for CheckIPHeader failures
//	badttl     counting drop for expired TTLs
//	missroute  counting drop for FIB misses
//
// The cluster FIB is a routebricks.RouteAdmin (RCU generation-swapped
// live table, bound through Options.FIB): routes can be added and
// withdrawn while every node forwards at full rate, and the admin API
// exposes exactly that — route changes commit once and reach all nodes'
// datapath cores without a reload.
//
// The framework parallelizes whatever graph the config describes:
// -cores picks the core count and -placement the §4.2 allocation
// (parallel = every core runs an independent copy of the whole graph on
// its own queue; pipelined = the graph's trunk is cut across cores,
// joined by SPSC handoff rings), driven on real goroutines.
//
// Every node runs to completion on the wire. A -cores N node binds N
// SO_REUSEPORT sockets on its external port — the kernel's flow hash is
// the RSS stage — and one goroutine per socket reads a batch
// (recvmmsg), runs the Click graph inline (Pipeline.RunBatch) and
// sends what it routed (sendmmsg) before it reads again.
// One more loop does the same for transit frames on the mesh socket. An
// idle loop parks in recvmmsg on the runtime poller: nothing polls,
// nothing sleeps, and no frame waits in a queue. A pipelined placement
// runs its first stage on the socket loops and hands off to runner
// cores, so §4.2's comparison runs on the wire as well. Tunnelled line
// traffic from one sender shares one outer 4-tuple, so it all lands on
// one socket loop.
//
// The process is live-operable while it runs: SIGHUP re-reads -config
// and hot-swaps every node's ingress pipeline under the library's drain
// barrier (prebound FIB/VLB resources carry over), -replan-auto starts
// a per-node controller that watches observed load and re-decides the
// placement automatically when the per-core imbalance crosses its
// hysteresis threshold, and -stats-addr serves the versioned admin API
// (stats, controller state, live FIB route ops, replan) as JSON over
// HTTP.
//
// Usage:
//
//	rbrouter                      # 4-node demo, 20000 packets
//	rbrouter -nodes 6 -packets 50000 -flowlets=false
//	rbrouter -cores 4 -placement pipelined
//	rbrouter -cores 4 -placement auto   # calibrate and pick the allocation
//	rbrouter -cores 4 -placement auto -replan-auto   # keep re-deciding under load
//	rbrouter -config my.click     # custom per-node ingress program
//	rbrouter -stats-addr 127.0.0.1:8642   # versioned admin API (see below)
//	curl http://127.0.0.1:8642/api/v1/stats        # cluster snapshot
//	curl http://127.0.0.1:8642/api/v1/controller   # replan-controller state
//	curl http://127.0.0.1:8642/api/v1/routes       # live FIB listing + generation
//	curl -X POST -d '{"add":[{"prefix":"192.0.2.0/24","next_hop":1}]}' \
//	     http://127.0.0.1:8642/api/v1/routes       # commit a route batch live
//	curl -X DELETE 'http://127.0.0.1:8642/api/v1/routes?prefix=192.0.2.0/24'
//	curl -X POST http://127.0.0.1:8642/api/v1/replan   # re-decide placement now
//	kill -HUP <pid>               # reload -config into the running datapath
//	rbrouter -print-graph         # dump the ingress graph as Graphviz dot and exit
//	rbrouter -print-graph | dot -Tsvg > graph.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/cluster"
	"routebricks/internal/elements"
	"routebricks/internal/netio"
	"routebricks/internal/pcap"
	"routebricks/internal/pkt"
	"routebricks/internal/sim"
	"routebricks/internal/stats"
	"routebricks/internal/trafficgen"
	"routebricks/internal/vlb"
)

// defaultConfig is the embedded per-node ingress program — the same
// CheckIPHeader → LPMLookup → DecIPTTL → VLB path the paper's router
// runs, with each error port routed to its own counting drop.
const defaultConfig = `
	// RouteBricks node ingress path. fib, vlb and the drops are prebound.
	check :: CheckIPHeader;
	rt    :: LPMLookup(fib);
	ttl   :: DecIPTTL;

	check[0] -> rt;
	check[1] -> badhdr;
	rt[0]    -> ttl;
	rt[1]    -> missroute;
	ttl[0]   -> vlb;
	ttl[1]   -> badttl;
`

func nowVirtual() sim.Time { return sim.Time(time.Now().UnixNano()) }

// poolShardSeq deals pool shards out to the long-lived I/O goroutines
// (socket loops, the collector) round-robin, so no two of them share a
// shard lock by accident. Runner cores get their shards from the plan.
var poolShardSeq atomic.Uint32

func nextShard() *pkt.PoolShard { return pkt.DefaultPool.Shard(int(poolShardSeq.Add(1))) }

// node is one cluster server. Its ext sockets receive line traffic and
// emit egress frames to the collector; int carries mesh links to peers.
// Its datapath is a loaded Click pipeline for ingress (the -config
// program) plus MAC-only transit, both run to completion by the loop
// that owns the socket a frame arrived on.
type node struct {
	id       int
	n        int
	exts     []*net.UDPConn // ingress sockets: SO_REUSEPORT siblings on one port, one loop each
	int_     *net.UDPConn
	fallback bool           // force the portable per-packet syscall path
	peers    []*net.UDPAddr // internal socket address of each node
	sink     *net.UDPAddr   // collector

	// readers and writers are every netio endpoint the node has made,
	// kept for the wire counters the admin API sums. Each chain prebound
	// builds brings its own writers, so a Reload adds more.
	wireMu  sync.Mutex
	readers []*netio.BatchReader
	writers []*netio.BatchWriter

	ingress *routebricks.Pipeline
	ctrl    *routebricks.Controller // adaptive replan watcher (-replan-auto)
	swapMu  sync.Mutex              // serializes swaps with the placement that follows each

	// live is the current membership vector in mesh mode (nil in the
	// single-process demo, where every peer is always up). It is read by
	// prebound when a Reload re-creates the VLB balancers, so a reload
	// under the drain barrier re-stripes the spread matrix against the
	// members that are actually alive.
	liveMu sync.Mutex
	live   []bool
	// dead marks the peers the failure detector declared dead: frames
	// routed to one are recycled and counted in tx_drained rather than
	// blackholed on the wire, from the moment setLive flips it.
	dead []atomic.Bool

	stop atomic.Bool
	wg   sync.WaitGroup

	forwarded atomic.Uint64
	egressed  atomic.Uint64
	routeMiss atomic.Uint64
	hdrDrops  atomic.Uint64
	transited atomic.Uint64 // frames the transit loop handled
	txDrained atomic.Uint64 // frames for a dead peer or a missing collector (accounted, not lost)
	restripes atomic.Uint64 // VLB re-stripe generation (mesh mode)
}

// egress is one goroutine's transmit side. Frames gather while a batch
// is routed and leave before the call that routed them returns: one
// sendmmsg on the mesh socket scatters to every peer, and one on an ext
// socket reaches the collector, so delivered frames leave from the
// node's line port. A frame is never queued, and each destination sees
// frames in the order they were routed.
type egress struct {
	nd           *node
	mesh, line   *pkt.Batch
	to           []*net.UDPAddr // destination of each mesh frame
	meshW, lineW *netio.BatchWriter
}

func (nd *node) newEgress(ext *net.UDPConn) *egress {
	cfg := netio.Config{ForceFallback: nd.fallback}
	e := &egress{nd: nd, mesh: pkt.NewBatch(32), line: pkt.NewBatch(32),
		meshW: netio.NewBatchWriter(nd.int_, cfg), lineW: netio.NewBatchWriter(ext, cfg)}
	nd.wireMu.Lock()
	nd.writers = append(nd.writers, e.meshW, e.lineW)
	nd.wireMu.Unlock()
	return e
}

// add routes p to peer j, or to the collector when j is nd.n.
func (e *egress) add(ctx *click.Context, j int, p *pkt.Packet) {
	nd := e.nd
	if e.mesh.Full() || e.line.Full() {
		e.flush(ctx)
	}
	switch {
	case j < nd.n && !nd.dead[j].Load():
		e.mesh.Add(p)
		e.to = append(e.to, nd.peers[j])
	case j == nd.n && nd.sink != nil:
		e.line.Add(p)
	default:
		// A dead peer, or no collector configured: recycling beats
		// blackholing, and tx_drained accounts every frame.
		nd.txDrained.Add(1)
		ctx.Recycle(pkt.DefaultPool, p)
	}
}

// flush sends what add gathered. The kernel copies at syscall time, so
// the frames recycle at once, into the running goroutine's shard; a send
// error loses them as the wire would.
func (e *egress) flush(ctx *click.Context) {
	nd := e.nd
	if n := e.mesh.Len(); n > 0 {
		nd.forwarded.Add(uint64(n))
		e.meshW.WriteScatter(e.mesh.Packets(), e.to)
		e.to = e.to[:0]
		ctx.RecycleBatch(pkt.DefaultPool, e.mesh)
	}
	if n := e.line.Len(); n > 0 {
		nd.egressed.Add(uint64(n))
		e.lineW.WriteBatch(e.line.Packets(), nd.sink)
		ctx.RecycleBatch(pkt.DefaultPool, e.line)
	}
}

// prebound resolves the instances a node's Click program may name, for
// one chain. The `fib` name binds through Options.FIB (the cluster's
// shared live table — each chain's LPMLookup snapshots it per batch);
// each chain gets its own VLB balancer and egress, which are
// single-threaded by contract, and a chain runs on one goroutine at a
// time.
func (nd *node) prebound(flowlets bool, chain int) map[string]routebricks.Element {
	return map[string]routebricks.Element{
		"vlb": &udpForward{
			bal: vlb.New(vlb.Config{
				Nodes: nd.n, Self: nd.id,
				LineRateBps: 1e9, // demo-scale line rate for the quota clock
				LinkCapBps:  1e9,
				Flowlets:    flowlets,
				Seed:        int64(nd.id)*64 + int64(chain) + 1,
				Live:        nd.currentLive(),
			}),
			tx: nd.newEgress(nd.exts[chain%len(nd.exts)]),
		},
		"badhdr":    countDrop(&nd.hdrDrops),
		"badttl":    countDrop(&nd.hdrDrops),
		"missroute": countDrop(&nd.routeMiss),
	}
}

// currentLive snapshots the membership vector for a balancer being
// built (nil = everyone up, the demo default).
func (nd *node) currentLive() []bool {
	nd.liveMu.Lock()
	defer nd.liveMu.Unlock()
	if nd.live == nil {
		return nil
	}
	return append([]bool(nil), nd.live...)
}

// setLive installs a new membership vector and flips each peer across
// the dead boundary at once: frames for a dead peer drain (recycled and
// counted) until it rejoins. The balancers pick the vector up at the
// next Reload — re-striping is a reload under the drain barrier, not a
// live mutation of a running balancer.
func (nd *node) setLive(live []bool) {
	nd.liveMu.Lock()
	nd.live = append([]bool(nil), live...)
	nd.liveMu.Unlock()
	for j := range nd.dead {
		if j < len(live) {
			nd.dead[j].Store(!live[j])
		}
	}
}

// countDrop builds a terminal that counts into the given node counter
// and recycles the buffer into the running goroutine's shard — the
// element is the packet's last owner.
func countDrop(n *atomic.Uint64) *elements.Sink {
	return &elements.Sink{
		Fn:      func(_ *click.Context, _ *pkt.Packet) { n.Add(1) },
		Recycle: pkt.DefaultPool,
	}
}

// probePlacement decides the core allocation for cfgText by Auto
// calibration against hermetic stand-in terminals: calibration drives
// synthetic packets through the candidate plans, so the probe graph
// must not touch sockets or pollute node counters. Used at startup for
// -placement auto and again by every -replan-auto controller trip.
func probePlacement(cfgText string, fib *routebricks.RouteAdmin, cores int) (*routebricks.Pipeline, error) {
	return routebricks.Load(cfgText, routebricks.Options{
		Cores:     cores,
		Placement: routebricks.Auto,
		FIB:       fib,
		Prebound: func(int) map[string]routebricks.Element {
			sink := func() routebricks.Element { return &elements.Sink{Recycle: pkt.DefaultPool} }
			return map[string]routebricks.Element{
				"vlb":       sink(),
				"badhdr":    sink(),
				"badttl":    sink(),
				"missroute": sink(),
			}
		},
	})
}

// printPrebound stands in for a node's runtime resources when the
// program is only being rendered (-print-graph): same element types, no
// sockets or tables behind them.
func printPrebound(chain int) map[string]routebricks.Element {
	return map[string]routebricks.Element{
		"fib":       &elements.LPMLookup{},
		"vlb":       &udpForward{},
		"badhdr":    &elements.Sink{},
		"badttl":    &elements.Sink{},
		"missroute": &elements.Sink{},
	}
}

// printStateClasses renders the -print-graph sidecar: every element's
// declared state class and the graph's steering-safety verdict. It goes
// to stderr so stdout stays pure Graphviz — `rbrouter -print-graph |
// dot -Tsvg` keeps working with the annotation visible on the terminal.
func printStateClasses(w io.Writer, pipe *routebricks.Pipeline) {
	r := pipe.Router(0)
	if r == nil {
		return
	}
	fmt.Fprintf(w, "state classes:\n")
	var perFlow, shared []string
	for _, name := range r.Elements() {
		el := r.Get(name)
		sc := click.StateClassOf(el)
		switch sc {
		case click.PerFlow:
			perFlow = append(perFlow, name)
		case click.Shared:
			shared = append(shared, name)
		}
		t := fmt.Sprintf("%T", el)
		fmt.Fprintf(w, "  %-12s %-16s %s\n", name, t[strings.LastIndexByte(t, '.')+1:], sc)
	}
	switch {
	case len(shared) > 0:
		fmt.Fprintf(w, "steering: shared-state elements %v pin this graph to one chain — it will not be cloned across cores\n", shared)
	case len(perFlow) > 0:
		fmt.Fprintf(w, "steering: per-flow elements %v require flow-consistent dispatch — the kernel's SO_REUSEPORT hash keeps each outer 4-tuple on one socket loop\n", perFlow)
	default:
		fmt.Fprintf(w, "steering: all elements stateless — any dispatch is safe\n")
	}
}

func newNode(id, n int, fib *routebricks.RouteAdmin, cfgText string, flowlets bool, cores int, kind click.PlanKind, fallback bool) (*node, error) {
	exts, err := netio.ListenReusePort("udp4", "127.0.0.1:0", cores)
	if err != nil {
		return nil, err
	}
	intc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return newNodeOnConns(id, n, exts, intc, fib, cfgText, flowlets, cores, kind, fallback)
}

// newNodeOnConns builds a node's datapath on caller-bound sockets — the
// single-process demo binds ephemeral loopback ports, mesh mode binds
// the addresses the topology file assigns this member. exts is the
// ingress socket set: SO_REUSEPORT siblings on one port acting as
// kernel-hashed receive queues (netio.ListenReusePort), one per core.
func newNodeOnConns(id, n int, exts []*net.UDPConn, intc *net.UDPConn, fib *routebricks.RouteAdmin, cfgText string, flowlets bool, cores int, kind click.PlanKind, fallback bool) (*node, error) {
	// Deep kernel receive buffers: injection is bursty and a pipelined
	// datapath on an oversubscribed host drains slowly, so the default
	// rmem can overflow invisibly before the loop reads again.
	for _, c := range exts {
		c.SetReadBuffer(4 << 20)
	}
	intc.SetReadBuffer(4 << 20)
	nd := &node{
		id: id, n: n, exts: exts, int_: intc, fallback: fallback,
		peers: make([]*net.UDPAddr, n),
		dead:  make([]atomic.Bool, n),
	}
	// The ingress datapath: the Click program, loaded and placed. The
	// graph is instantiated once per chain — a parallel plan clones the
	// whole graph per core, a pipelined plan cuts its trunk across cores
	// wherever the topology allows.
	var err error
	nd.ingress, err = routebricks.Load(cfgText, routebricks.Options{
		Cores:     cores,
		Placement: kind,
		FIB:       fib,
		Prebound: func(chain int) map[string]routebricks.Element {
			return nd.prebound(flowlets, chain)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("load ingress program: %w", err)
	}
	return nd, nil
}

// udpForward is the terminal ingress element: it rewrites the steering
// MACs, consults its chain's VLB balancer, and emits the frame through
// its chain's egress.
type udpForward struct {
	click.Base
	bal *vlb.Balancer
	tx  *egress
}

// InPorts reports 1.
func (f *udpForward) InPorts() int { return 1 }

// OutPorts reports 0: the socket is the output.
func (f *udpForward) OutPorts() int { return 0 }

// PushBatch routes a batch into the cluster and sends it before
// returning.
func (f *udpForward) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	now := nowVirtual()
	for _, p := range b.Packets() {
		if p != nil {
			f.tx.add(ctx, f.route(now, p), p)
		}
	}
	f.tx.flush(ctx)
	b.Reset()
}

// Push is PushBatch for one packet.
func (f *udpForward) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	f.tx.add(ctx, f.route(nowVirtual(), p), p)
	f.tx.flush(ctx)
}

// route stamps the steering MACs and picks the frame's destination
// slot: the collector for a prefix this node owns, otherwise the next
// hop the chain's balancer chooses.
func (f *udpForward) route(now sim.Time, p *pkt.Packet) int {
	nd := f.tx.nd
	out := p.NextHop // resolved by LPMLookup
	p.Ether().SetSrc(pkt.NodeMAC(nd.id))
	p.Ether().SetDst(pkt.NodeMAC(out))
	if out == nd.id {
		return nd.n
	}
	return f.bal.Route(now, p, out).Next
}

// transit returns the data socket loop's handler: mesh frames move by
// MAC only, to the collector when this node owns the destination and to
// the next node otherwise, through the loop's own egress.
func (nd *node) transit(tx *egress) func(*click.Context, *pkt.Batch) {
	return func(ctx *click.Context, b *pkt.Batch) {
		nd.transited.Add(uint64(b.Len()))
		for _, p := range b.Packets() {
			out := p.Ether().Dst().Node()
			switch {
			case out == nd.id:
				out = nd.n
			case out >= nd.n:
				// Not a member's MAC: rejected for its header.
				nd.hdrDrops.Add(1)
				ctx.Recycle(pkt.DefaultPool, p)
				continue
			}
			tx.add(ctx, out, p)
		}
		tx.flush(ctx)
		b.Reset()
	}
}

// runLoop is one datapath core: it owns one socket from recvmmsg to
// sendmmsg. Each turn reads a batch straight into pool buffers (netio
// points the kernel's iovecs at them), drops runts, and hands the rest
// to run — the ingress graph or transit — which flushes its egress
// before returning, so nothing is in flight when the next read starts.
// An idle loop parks in the read on the runtime poller, with no
// deadline; shutdown wakes it with an immediate-deadline poke. The
// loop's pool shard rides on the context, so every recycle on the way —
// runts, counting drops, sent frames — stays shard-local.
func (nd *node) runLoop(r *netio.BatchReader, shard *pkt.PoolShard, run func(*click.Context, *pkt.Batch)) {
	defer nd.wg.Done()
	defer r.Release()
	ctx := &click.Context{PoolShard: shard}
	batch := pkt.NewBatch(32)
	for !nd.stop.Load() {
		batch.Reset()
		if _, err := r.ReadBatch(batch); err != nil {
			// Shutdown poke (deadline in the past) or a transient socket
			// error; the stop check decides which.
			if !nd.stop.Load() {
				runtime.Gosched()
			}
			continue
		}
		for i, p := range batch.Packets() {
			if len(p.Data) < pkt.EtherHdrLen+pkt.IPv4HdrLen {
				// Runt: not even a frame header — rejected for its header.
				nd.hdrDrops.Add(1)
				shard.Put(batch.Take(i))
			}
		}
		if batch.Compact() > 0 {
			run(ctx, batch)
			ctx.TakeCycles()
		}
	}
}

// newReader builds one receive queue: a netio batch reader on its own
// pool shard, registered for the node's wire counters.
func (nd *node) newReader(conn *net.UDPConn) (*netio.BatchReader, *pkt.PoolShard) {
	shard := nextShard()
	r := netio.NewBatchReader(conn, netio.Config{Shard: shard, ForceFallback: nd.fallback})
	nd.wireMu.Lock()
	nd.readers = append(nd.readers, r)
	nd.wireMu.Unlock()
	return r, shard
}

// start places the ingress plan and launches the socket loops: one per
// ingress socket, feeding chain q % Chains(), and one for transit.
func (nd *node) start() error {
	if err := nd.place(); err != nil {
		return err
	}
	for q, c := range nd.exts {
		r, shard := nd.newReader(c)
		nd.wg.Add(1)
		go nd.runLoop(r, shard, func(ctx *click.Context, b *pkt.Batch) { nd.ingress.RunBatch(q, ctx, b) })
	}
	r, shard := nd.newReader(nd.int_)
	nd.wg.Add(1)
	go nd.runLoop(r, shard, nd.transit(nd.newEgress(nd.exts[0])))
	return nil
}

// shutdown stops the loops — each flushes its last batch before it
// exits — then the pipelined Runner, if any, and closes the sockets.
func (nd *node) shutdown() {
	if nd.ctrl != nil {
		nd.ctrl.Stop()
	}
	nd.stop.Store(true)
	now := time.Now()
	for _, c := range nd.exts {
		c.SetReadDeadline(now)
	}
	nd.int_.SetReadDeadline(now)
	nd.wg.Wait()
	nd.ingress.Stop()
	for _, c := range nd.exts {
		c.Close()
	}
	nd.int_.Close()
}

// place runs the ingress plan the way its placement needs, after Load
// and after every swap: a parallel plan runs wholly on the socket loops
// and its Runner stays stopped; a pipelined plan runs its first group
// on the loops and needs the Runner for its handoff consumers.
func (nd *node) place() error {
	nd.ingress.Stop()
	if nd.ingress.Placement() != click.Pipelined {
		return nil
	}
	return nd.ingress.Start()
}

// swap applies one Reload or Replan and places the result. swapMu keeps
// concurrent swaps (SIGHUP, re-stripe, the admin API, the controller)
// from placing a plan they did not install.
func (nd *node) swap(do func() error) error {
	nd.swapMu.Lock()
	defer nd.swapMu.Unlock()
	if err := do(); err != nil {
		return err
	}
	return nd.place()
}

// reload hot-swaps the node's ingress program. Options inherit from the
// running pipeline (merge semantics), so the prebound FIB, VLB
// balancers, and drop counters rebind to the new graph's chains through
// the same closure — only Placement must be restated.
func (nd *node) reload(cfgText string, kind click.PlanKind) error {
	return nd.swap(func() error { return nd.ingress.Reload(cfgText, routebricks.Options{Placement: kind}) })
}

// replan re-places the running program under the given allocation.
func (nd *node) replan(kind click.PlanKind) error {
	return nd.swap(func() error { return nd.ingress.Replan(routebricks.Options{Placement: kind}) })
}

func run() error {
	var (
		nNodes     = flag.Int("nodes", 4, "cluster size")
		packets    = flag.Int("packets", 20000, "packets to inject")
		rate       = flag.Int("rate", 40000, "injection rate (packets/sec)")
		flowlets   = flag.Bool("flowlets", true, "enable flowlet reordering avoidance")
		cores      = flag.Int("cores", 1, "datapath cores per node, each owning one SO_REUSEPORT ingress socket")
		placement  = flag.String("placement", "parallel", "core allocation: parallel, pipelined, or auto (calibrate and pick)")
		configPath = flag.String("config", "", "Click-language ingress program (default: embedded IP router config)")
		replanAuto = flag.Bool("replan-auto", false, "watch per-node load and Replan(auto) when the observed imbalance crosses the controller's threshold")
		printGraph = flag.Bool("print-graph", false, "print the ingress element graph as Graphviz dot and exit")
		pcapPath   = flag.String("pcap", "", "capture egress traffic to this pcap file")
		statsAddr  = flag.String("stats-addr", "", "serve the versioned admin API (stats, controller, live FIB routes, replan) on this HTTP address under /api/v1")
		meshTopo   = flag.String("mesh", "", "run as ONE member of a multi-process mesh defined by this topology file (see cmd/rbmesh); requires -mesh-id")
		meshID     = flag.Int("mesh-id", -1, "this process's member id in the -mesh topology")
		wireFall   = flag.Bool("wire-fallback", false, "force the portable per-packet syscall path instead of recvmmsg/sendmmsg batching")
	)
	flag.Parse()
	cfgText := defaultConfig
	if *configPath != "" {
		raw, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		cfgText = string(raw)
	}
	if *printGraph {
		pipe, err := routebricks.Load(cfgText, routebricks.Options{Prebound: printPrebound})
		if err != nil {
			return err
		}
		fmt.Print(pipe.DOT())
		printStateClasses(os.Stderr, pipe)
		return nil
	}
	if *cores < 1 || *cores > 64 {
		return fmt.Errorf("cores must be in [1,64]")
	}
	kind, autoPlace, err := parsePlacement(*placement)
	if err != nil {
		return err
	}
	if *meshTopo != "" {
		return runMesh(*meshTopo, *meshID, cfgText, *flowlets, *cores, kind, autoPlace, *wireFall)
	}
	if *nNodes < 2 || *nNodes > 64 {
		return fmt.Errorf("nodes must be in [2,64]")
	}
	var capture *pcap.Writer
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if capture, err = pcap.NewWriter(f); err != nil {
			return err
		}
	}

	// Shared live FIB: node d owns 10.d.0.0/16, seeded as one commit.
	// Every node's LPMLookup snapshots this table per batch, so route
	// changes posted to /api/v1/routes reach all datapath cores without
	// touching the running plans.
	fib, err := routebricks.NewFIB(cluster.SeedRoutes(*nNodes)...)
	if err != nil {
		return err
	}

	// Resolve -placement auto once, against hermetic stand-in terminals
	// (calibration drives synthetic traffic through the graph, so the
	// probe must not touch sockets or pollute node counters); every node
	// then gets the measured decision.
	if autoPlace {
		probe, err := probePlacement(cfgText, fib, *cores)
		if err != nil {
			return fmt.Errorf("auto placement calibration: %w", err)
		}
		kind = probe.Placement()
		fmt.Printf("placement %s\n", describeDecision(probe))
	}

	collector, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer collector.Close()
	collector.SetReadBuffer(4 << 20)

	nodes := make([]*node, *nNodes)
	for i := range nodes {
		if nodes[i], err = newNode(i, *nNodes, fib, cfgText, *flowlets, *cores, kind, *wireFall); err != nil {
			return err
		}
	}
	for _, nd := range nodes {
		nd.sink = collector.LocalAddr().(*net.UDPAddr)
		for j, peer := range nodes {
			nd.peers[j] = peer.int_.LocalAddr().(*net.UDPAddr)
		}
	}
	for _, nd := range nodes {
		if err := nd.start(); err != nil {
			return err
		}
	}
	// -replan-auto: one controller per node watches the ingress
	// pipeline's Snapshot deltas and re-decides the placement when the
	// observed per-core imbalance (or ring backpressure growth) crosses
	// the hysteresis thresholds. State is served in -stats-addr JSON.
	// The controller's default action would calibrate through the
	// node's live terminals and emit synthetic frames into the mesh, so
	// the hook decides against the hermetic probe first and replans
	// with the explicit winner.
	var cfgMu sync.Mutex
	cfgCurrent := cfgText // kept in step with successful SIGHUP reloads
	if *replanAuto {
		for _, nd := range nodes {
			nd.ctrl = nd.ingress.NewController(routebricks.ControllerConfig{
				Replan: func() error {
					cfgMu.Lock()
					text := cfgCurrent
					cfgMu.Unlock()
					probe, err := probePlacement(text, fib, *cores)
					if err != nil {
						return err
					}
					return nd.replan(probe.Placement())
				},
			})
			nd.ctrl.Start()
		}
		fmt.Println("replan-auto: per-node controllers watching ingress load")
	}
	fmt.Printf("rbrouter: %d nodes meshed over UDP, injecting %d packets at %d pps (flowlets=%v)\n",
		*nNodes, *packets, *rate, *flowlets)
	wireMode := "fallback"
	if netio.Available() && !*wireFall {
		wireMode = "mmsg"
	}
	fmt.Printf("wire I/O: %s, %d ingress socket(s) per node, one run-to-completion loop each\n", wireMode, *cores)
	fmt.Printf("per-node ingress placement: %s", nodes[0].ingress.Describe())

	// SIGHUP → hot-reload: re-read -config and swap every node's ingress
	// pipeline under the library's drain barrier. Prebound resources
	// (FIB, VLB balancers, drop counters) carry over via option
	// inheritance; a bad config is reported and the old datapath keeps
	// forwarding.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			text := defaultConfig
			src := "embedded config"
			if *configPath != "" {
				raw, err := os.ReadFile(*configPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "rbrouter: reload:", err)
					continue
				}
				text, src = string(raw), *configPath
			}
			ok := true
			for _, nd := range nodes {
				if err := nd.reload(text, kind); err != nil {
					fmt.Fprintf(os.Stderr, "rbrouter: reload node %d: %v\n", nd.id, err)
					ok = false
					break
				}
			}
			if ok {
				cfgMu.Lock()
				cfgCurrent = text
				cfgMu.Unlock()
				fmt.Printf("rbrouter: reloaded %s (generation %d)\n", src, nodes[0].ingress.Generation())
			}
		}
	}()

	// -stats-addr: the versioned admin API — the cluster's unified
	// observability surface (every node's typed ingress Snapshot plus its
	// socket-level counters, and per-node controller state) alongside the
	// write side: live FIB route ops and an on-demand cluster replan.
	if *statsAddr != "" {
		ln, err := net.Listen("tcp", *statsAddr)
		if err != nil {
			return fmt.Errorf("stats-addr: %w", err)
		}
		// POST /api/v1/replan re-decides every node's placement against
		// the hermetic probe — the same guarded path -replan-auto uses.
		replanAll := func() error {
			cfgMu.Lock()
			text := cfgCurrent
			cfgMu.Unlock()
			probe, err := probePlacement(text, fib, *cores)
			if err != nil {
				return err
			}
			for _, nd := range nodes {
				if err := nd.replan(probe.Placement()); err != nil {
					return fmt.Errorf("node %d: %w", nd.id, err)
				}
			}
			return nil
		}
		srv := &http.Server{Handler: newAdminMux(nodes, fib, replanAll, nil)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("admin API: http://%s/api/v1/{stats,controller,routes,replan}\n", ln.Addr())
	}

	// Collector: count deliveries and measure reordering. Frames arrive
	// in batches straight into pool buffers; the 2s quiescence deadline
	// is re-armed once per batch, not once per datagram.
	meter := stats.NewReorderMeter()
	var received atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		shard := nextShard()
		rd := netio.NewBatchReader(collector, netio.Config{Shard: shard, ForceFallback: *wireFall})
		defer rd.Release()
		batch := pkt.NewBatch(32)
		for received.Load() < uint64(*packets) {
			collector.SetReadDeadline(time.Now().Add(2 * time.Second))
			batch.Reset()
			if _, err := rd.ReadBatch(batch); err != nil {
				return // quiescent: give up
			}
			for _, p := range batch.Packets() {
				if capture != nil {
					capture.WritePacket(time.Now().UnixNano(), p.Data)
				}
				payload := p.L4Payload()
				if len(payload) >= 8 {
					seq := uint64(payload[0])<<56 | uint64(payload[1])<<48 | uint64(payload[2])<<40 |
						uint64(payload[3])<<32 | uint64(payload[4])<<24 | uint64(payload[5])<<16 |
						uint64(payload[6])<<8 | uint64(payload[7])
					meter.Observe(p.FlowHash(), seq)
				}
				received.Add(1)
				shard.Put(p)
			}
		}
	}()

	// Injector: flows aimed at node prefixes, round-robin over input
	// nodes, paced at the requested rate.
	src := trafficgen.New(trafficgen.Config{Seed: 1, Sizes: trafficgen.Fixed(128), DstAddrs: cluster.DestPool(*nNodes, 8)})
	interval := time.Second / time.Duration(*rate)
	// SIGTERM/SIGINT stops injection early; the report still waits for
	// the collector to go quiet.
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(term)
	start := time.Now()
	injected, stopping := 0, false
	// Injection goes out in 8-frame bursts through one netio writer —
	// one sendmmsg per burst on the fast path, matching the pacing
	// granularity below. WriteScatter carries a destination per frame,
	// so a burst spanning several input nodes still costs one syscall.
	inj := netio.NewBatchWriter(collector, netio.Config{ForceFallback: *wireFall})
	burst := make([]*pkt.Packet, 0, 8)
	dests := make([]*net.UDPAddr, 0, 8)
	flush := func() error {
		if len(burst) == 0 {
			return nil
		}
		_, err := inj.WriteScatter(burst, dests)
		for _, p := range burst {
			pkt.DefaultPool.Put(p) // the kernel copied at syscall time
		}
		burst, dests = burst[:0], dests[:0]
		return err
	}
	for i := 0; i < *packets && !stopping; i++ {
		select {
		case <-term:
			fmt.Println("rbrouter: signal received, stopping injection")
			stopping = true
			continue
		default:
		}
		p := src.Next()
		payload := p.L4Payload()
		seq := p.SeqNo
		for b := 0; b < 8; b++ {
			payload[b] = byte(seq >> (56 - 8*b))
		}
		// A flow always enters at the same external port (keyed on its
		// source address), as it would in a real deployment; spraying one
		// flow across input nodes would manufacture reordering no router
		// could prevent.
		in := nodes[int(p.IPv4().SrcUint32())%*nNodes]
		burst = append(burst, p)
		dests = append(dests, in.exts[0].LocalAddr().(*net.UDPAddr))
		injected++
		if i%8 == 7 {
			if err := flush(); err != nil {
				return err
			}
			// Pace against the clock, not per burst: Sleep rounds short waits
			// up, and the bursts after an oversleep catch up unslept.
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * interval)))
		}
	}
	if err := flush(); err != nil {
		return err
	}
	<-done
	elapsed := time.Since(start)

	for _, nd := range nodes {
		nd.shutdown()
	}

	var forwarded, egressed, miss, hdr, drained uint64
	for _, nd := range nodes {
		forwarded += nd.forwarded.Load()
		egressed += nd.egressed.Load()
		miss += nd.routeMiss.Load()
		hdr += nd.hdrDrops.Load()
		drained += nd.txDrained.Load()
	}
	fmt.Printf("delivered %d/%d packets in %v (%.0f pps through the mesh)\n",
		received.Load(), injected, elapsed.Round(time.Millisecond),
		float64(received.Load())/elapsed.Seconds())
	fmt.Printf("internal forwards: %d, egressed: %d, route misses: %d, header drops: %d, tx-drained: %d\n",
		forwarded, egressed, miss, hdr, drained)
	fmt.Printf("reordering: %s\n", meter)
	if received.Load() < uint64(injected)*95/100 {
		return fmt.Errorf("lost more than 5%% of packets")
	}
	return nil
}

// nodeSnapshot is one node's slice of the -stats-addr JSON document:
// the shared stats.NodeStats wire shape (rbmesh decodes exactly that
// when it aggregates member snapshots) plus process-local extras the
// wire type does not carry — controller state, which cannot live in
// internal/stats without an import cycle through the facade.
type nodeSnapshot struct {
	stats.NodeStats
	Controller *routebricks.ControllerState `json:"controller,omitempty"`
}

// wireSnapshot sums the node's netio reader and writer counters into
// the admin API's wire block. Mode reports "mmsg" if any socket runs
// the fast path ("fallback" only when all do not); the mean syscall
// fill — what batching exists to raise — is RxFrames/RxBatches and
// TxFrames/TxBatches.
func (nd *node) wireSnapshot() *stats.WireSnapshot {
	w := &stats.WireSnapshot{Mode: "fallback"}
	nd.wireMu.Lock()
	defer nd.wireMu.Unlock()
	for _, r := range nd.readers {
		s := r.Stats()
		w.RxBatches += s.Batches
		w.RxFrames += s.Frames
		w.RxTruncated += s.Truncated
		if r.Mode() == "mmsg" {
			w.Mode = "mmsg"
		}
	}
	for _, wr := range nd.writers {
		s := wr.Stats()
		w.TxBatches += s.Batches
		w.TxFrames += s.Frames
	}
	return w
}

// snapshot reads the node's counters. TransitQueued, RxDrops and
// TxStalls stay zero: no frame waits in a queue on the node, and a full
// socket buffer parks the loop in sendmmsg instead of stalling a ring.
func (nd *node) snapshot() nodeSnapshot {
	var ctrlState *routebricks.ControllerState
	if nd.ctrl != nil {
		st := nd.ctrl.State()
		ctrlState = &st
	}
	ing := nd.ingress.Snapshot()
	ing.Wire = nd.wireSnapshot()
	return nodeSnapshot{
		NodeStats: stats.NodeStats{
			ID:             nd.id,
			Ingress:        ing,
			TransitPackets: nd.transited.Load(),
			Forwarded:      nd.forwarded.Load(),
			Egressed:       nd.egressed.Load(),
			RouteMisses:    nd.routeMiss.Load(),
			HeaderDrops:    nd.hdrDrops.Load(),
			TxBatches:      ing.Wire.TxBatches,
			TxDrained:      nd.txDrained.Load(),
			Restripes:      nd.restripes.Load(),
		},
		Controller: ctrlState,
	}
}

func clusterSnapshot(nodes []*node) []nodeSnapshot {
	out := make([]nodeSnapshot, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.snapshot()
	}
	return out
}

// parsePlacement maps the -placement flag to a plan kind; auto is
// resolved later by calibration, once a FIB exists to probe against.
func parsePlacement(s string) (click.PlanKind, bool, error) {
	switch s {
	case "parallel":
		return click.Parallel, false, nil
	case "pipelined":
		return click.Pipelined, false, nil
	case "auto":
		return click.Parallel, true, nil
	}
	return 0, false, fmt.Errorf("placement must be parallel, pipelined, or auto, got %q", s)
}

// describeDecision renders an auto-placement probe's outcome for the
// startup banner.
func describeDecision(p *routebricks.Pipeline) string {
	s := fmt.Sprintf("auto → %s", p.Placement())
	for _, c := range p.Calibration() {
		s += fmt.Sprintf("  [%s score %.0f, %d handoff pkts]", c.Plan, c.Score, c.HandoffPackets)
	}
	return s
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rbrouter:", err)
		os.Exit(1)
	}
}
