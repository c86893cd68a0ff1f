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
//	curl http://127.0.0.1:8642/api/v1/rss          # per-node flow-steering tables
//	curl -X POST -d '{"node":0,"moves":[{"bucket":5,"from":0,"to":1}]}' \
//	     http://127.0.0.1:8642/api/v1/rss          # migrate steering buckets by hand
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
	"routebricks/internal/exec"
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

// poolShardSeq deals pool shards out to the I/O goroutines (readers and
// writers) round-robin, so no two long-lived goroutines share a shard
// lock by accident. Datapath cores get their shards from the plan.
var poolShardSeq atomic.Uint32

// wireConfig selects how a node binds and drives its kernel wire I/O
// (see internal/netio): how many SO_REUSEPORT receive queues share the
// ingress port, and whether the mmsg fast path is forced off.
type wireConfig struct {
	rxQueues int  // ingress receive queues (1 = a single plain socket)
	fallback bool // force the portable per-packet syscall path
}

func (w wireConfig) netio(shard *pkt.PoolShard) netio.Config {
	return netio.Config{Shard: shard, ForceFallback: w.fallback}
}

// node is one cluster server backed by two UDP sockets: ext receives
// line traffic and emits egress frames to the collector; int carries
// mesh links to peers. Its datapath is a loaded Click pipeline for
// ingress (the -config program) and a placement plan for transit
// (MAC-only forwarding); the socket readers feed their input rings.
type node struct {
	id    int
	n     int
	ext   *net.UDPConn   // primary ingress socket (extQs[0]); also the egress socket to the collector
	extQs []*net.UDPConn // all ingress receive queues (SO_REUSEPORT siblings of ext)
	int_  *net.UDPConn
	wire  wireConfig
	peers []*net.UDPAddr // internal socket address of each node
	sink  *net.UDPAddr   // collector

	// readers are the node's netio batch readers (one per ingress queue
	// plus one for transit), kept for the wire counters the admin API
	// sums. Built in start before any concurrent access.
	readers []*netio.BatchReader

	ingress *routebricks.Pipeline
	transit *click.Plan
	ctrl    *routebricks.Controller // adaptive replan watcher (-replan-auto)

	// live is the current membership vector in mesh mode (nil in the
	// single-process demo, where every peer is always up). It is read by
	// prebound when a Reload re-creates the VLB balancers, so a reload
	// under the drain barrier re-stripes the spread matrix against the
	// members that are actually alive.
	liveMu sync.Mutex
	live   []bool

	// Batch-aware UDP egress: datapath cores enqueue frames into
	// per-destination rings; one writer goroutine per destination pays
	// the WriteToUDP syscalls off the datapath core.
	txq    []*txQueue // per peer (nil at self)
	sinkq  *txQueue   // to the collector
	txStop atomic.Bool
	wwg    sync.WaitGroup

	stop atomic.Bool
	wg   sync.WaitGroup

	forwarded atomic.Uint64
	egressed  atomic.Uint64
	routeMiss atomic.Uint64
	hdrDrops  atomic.Uint64
	rxDrops   atomic.Uint64
	txBatches atomic.Uint64 // batches flushed by egress writers
	txStalls  atomic.Uint64 // egress backpressure stalls (ring full, datapath waited)
	txDrained atomic.Uint64 // frames flushed from tx rings on shutdown/re-stripe (accounted, not lost)
	restripes atomic.Uint64 // VLB re-stripe generation (mesh mode)
}

// txQueue carries egress frames from datapath cores to one writer
// goroutine — the batch-aware UDP egress path. exec.Ring is SPSC, but
// several cores (every ingress chain plus transit) emit toward the same
// peer, so pushes serialize on mu: the mutex makes "single producer"
// true one push at a time while the writer goroutine stays the sole
// consumer, lock-free.
type txQueue struct {
	mu   sync.Mutex
	ring *exec.Ring
	conn *net.UDPConn
	addr *net.UDPAddr
	// w flushes a popped batch to addr with one sendmmsg where the
	// platform has it (per-packet WriteToUDP otherwise); its counters
	// feed the node's wire snapshot.
	w *netio.BatchWriter
	// dead marks the destination as declared dead by the failure
	// detector: the writer recycles queued frames (counted as drained)
	// instead of blackholing them on the wire. Cleared on rejoin.
	dead atomic.Bool
}

func (q *txQueue) push(p *pkt.Packet) bool {
	q.mu.Lock()
	ok := q.ring.Push(p)
	q.mu.Unlock()
	return ok
}

// runWriter drains one egress queue in batches: each loop pops up to a
// whole batch and flushes it through the queue's netio writer — one
// sendmmsg on the fast path — so the syscall cost of a frame is
// amortized over the batch instead of stalling a forwarding core per
// frame. Exits only after a final drain once txStop is set.
func (nd *node) runWriter(q *txQueue) {
	defer nd.wwg.Done()
	// Each writer goroutine recycles through its own pool shard: Put
	// takes only that shard's lock, never a lock shared with the
	// datapath cores or the other writers.
	shard := pkt.DefaultPool.Shard(int(poolShardSeq.Add(1)))
	batch := pkt.NewBatch(64)
	idle := 0
	for {
		batch.Reset()
		// PopBatchInto appends only live packets, so Packets() is exactly
		// the n frames to flush — no nil re-scan.
		n := q.ring.PopBatchInto(batch, batch.Cap())
		if n == 0 {
			if nd.txStop.Load() && q.ring.Len() == 0 {
				return
			}
			idle++
			if idle > 64 {
				time.Sleep(50 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idle = 0
		if q.dead.Load() {
			// Destination declared dead: recycling beats blackholing —
			// every in-flight frame shows up in tx_drained instead of
			// silently vanishing into a closed socket.
			shard.PutBatch(batch)
			nd.txDrained.Add(uint64(n))
			continue
		}
		// The kernel copies into skbs at syscall time, so the batch can
		// recycle the moment WriteBatch returns.
		q.w.WriteBatch(batch.Packets(), q.addr)
		shard.PutBatch(batch)
		nd.txBatches.Add(1)
		if nd.txStop.Load() {
			// Graceful shutdown: frames flushed after Stop are the drain —
			// they reach the wire, and the count proves nothing was lost
			// in the rings.
			nd.txDrained.Add(uint64(n))
		}
	}
}

// enqueue hands a frame to a destination's writer. When the ring is
// full (the writer is behind a burst) the datapath core waits for
// space rather than writing inline — an inline write would overtake
// same-flow frames still queued, manufacturing exactly the reordering
// this simulator exists to measure. The stall is counted so egress
// backpressure shows up in -stats-addr. Frames are dropped (recycled,
// counted as a stall) only when shutdown has already stopped the
// writers.
func (nd *node) enqueue(q *txQueue, p *pkt.Packet) {
	if q.push(p) {
		return
	}
	nd.txStalls.Add(1)
	for !q.push(p) {
		if nd.txStop.Load() {
			pkt.DefaultPool.Put(p)
			return
		}
		runtime.Gosched()
	}
}

// prebound resolves the instances a node's Click program may name, for
// one chain. The `fib` name binds through Options.FIB (the cluster's
// shared live table — each chain's LPMLookup snapshots it per batch);
// each chain gets its own VLB balancer, which is single-threaded by
// contract, and a chain runs on exactly one core at a time.
func (nd *node) prebound(flowlets bool, chain int) map[string]routebricks.Element {
	return map[string]routebricks.Element{
		"vlb": &udpForward{nd: nd, bal: vlb.New(vlb.Config{
			Nodes: nd.n, Self: nd.id,
			LineRateBps: 1e9, // demo-scale line rate for the quota clock
			LinkCapBps:  1e9,
			Flowlets:    flowlets,
			Seed:        int64(nd.id)*64 + int64(chain) + 1,
			Live:        nd.currentLive(),
		})},
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

// setLive installs a new membership vector and flips the per-peer
// writer queues across the dead boundary: a dead peer's queue drains
// (frames recycled and counted) until the peer rejoins. The balancers
// pick the vector up at the next Reload — re-striping is a reload under
// the drain barrier, not a live mutation of a running balancer.
func (nd *node) setLive(live []bool) {
	nd.liveMu.Lock()
	nd.live = append([]bool(nil), live...)
	nd.liveMu.Unlock()
	for j, q := range nd.txq {
		if q == nil || j >= len(live) {
			continue
		}
		q.dead.Store(!live[j])
	}
}

// countDrop builds a terminal that counts into the given node counter
// and recycles the buffer — the element is the packet's last owner.
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
		fmt.Fprintf(w, "steering: per-flow elements %v require flow-consistent dispatch — safe under PushFlow (RSS table), rejected under -steal\n", perFlow)
	default:
		fmt.Fprintf(w, "steering: all elements stateless — any dispatch is safe\n")
	}
}

func newNode(id, n int, fib *routebricks.RouteAdmin, cfgText string, flowlets bool, cores int, kind click.PlanKind, steal bool, wire wireConfig) (*node, error) {
	exts, err := netio.ListenReusePort("udp4", "127.0.0.1:0", wire.rxQueues)
	if err != nil {
		return nil, err
	}
	intc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return newNodeOnConns(id, n, exts, intc, fib, cfgText, flowlets, cores, kind, steal, wire)
}

// newNodeOnConns builds a node's datapath on caller-bound sockets — the
// single-process demo binds ephemeral loopback ports, mesh mode binds
// the addresses the topology file assigns this member. exts is the
// ingress socket set: one plain socket, or SO_REUSEPORT siblings on one
// port acting as kernel-hashed receive queues (netio.ListenReusePort).
func newNodeOnConns(id, n int, exts []*net.UDPConn, intc *net.UDPConn, fib *routebricks.RouteAdmin, cfgText string, flowlets bool, cores int, kind click.PlanKind, steal bool, wire wireConfig) (*node, error) {
	// Deep kernel receive buffers: injection is bursty and a pipelined
	// datapath on an oversubscribed host drains slowly, so the default
	// rmem can overflow invisibly before the reader ever runs.
	for _, c := range exts {
		c.SetReadBuffer(4 << 20)
	}
	intc.SetReadBuffer(4 << 20)
	nd := &node{
		id: id, n: n, ext: exts[0], extQs: exts, int_: intc, wire: wire,
		peers: make([]*net.UDPAddr, n),
	}
	var err error

	// The ingress datapath: the Click program, loaded and placed. The
	// graph is instantiated once per chain — a parallel plan clones the
	// whole graph per core, a pipelined plan cuts its trunk across cores
	// wherever the topology allows.
	nd.ingress, err = routebricks.Load(cfgText, routebricks.Options{
		Cores:     cores,
		Placement: kind,
		KP:        32,
		InputCap:  4096,
		Steal:     steal,
		FIB:       fib,
		Prebound: func(chain int) map[string]routebricks.Element {
			return nd.prebound(flowlets, chain)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("load ingress program: %w", err)
	}

	// Transit traffic moves by MAC only — a one-element graph, so
	// parallel is the only sensible allocation regardless of -placement.
	nd.transit, err = click.NewPlan(click.PlanConfig{
		Kind:  click.Parallel,
		Cores: cores,
		Program: click.NewProgram(func(int) (*click.Router, error) {
			r := click.NewRouter()
			return r, r.Add("transit", &udpTransit{nd: nd})
		}),
		KP: 32, InputCap: 4096,
	})
	if err != nil {
		return nil, err
	}
	return nd, nil
}

// udpForward is the terminal ingress element: it rewrites the steering
// MACs, consults its chain's VLB balancer, and emits the frame on the
// node's sockets.
type udpForward struct {
	click.Base
	nd  *node
	bal *vlb.Balancer
}

// InPorts reports 1.
func (f *udpForward) InPorts() int { return 1 }

// OutPorts reports 0: the socket is the output.
func (f *udpForward) OutPorts() int { return 0 }

// Push routes the packet into the cluster.
func (f *udpForward) Push(_ *click.Context, _ int, p *pkt.Packet) {
	nd := f.nd
	out := p.NextHop // resolved by LPMLookup
	p.Ether().SetSrc(pkt.NodeMAC(nd.id))
	p.Ether().SetDst(pkt.NodeMAC(out))
	if out == nd.id {
		nd.egress(p)
		return
	}
	d := f.bal.Route(nowVirtual(), p, out)
	nd.send(d.Next, p)
}

// udpTransit is the terminal transit element: mesh packets move by MAC
// only, to the external wire or the next node.
type udpTransit struct {
	click.Base
	nd *node
}

// InPorts reports 1.
func (t *udpTransit) InPorts() int { return 1 }

// OutPorts reports 0.
func (t *udpTransit) OutPorts() int { return 0 }

// Push forwards without header processing.
func (t *udpTransit) Push(_ *click.Context, _ int, p *pkt.Packet) {
	out := p.Ether().Dst().Node()
	if out == t.nd.id {
		t.nd.egress(p)
		return
	}
	t.nd.send(out, p)
}

// runReader pulls batches of UDP datagrams off one socket and hands
// them to push — the RSS role. Datagrams land directly in pool-backed
// packet buffers (netio points the kernel's iovecs at them), so there
// is no staging buffer and no per-datagram copy on either syscall path.
// The reader blocks with no deadline — shutdown wakes it with an
// immediate-deadline poke rather than closing the socket, because the
// egress writers still own the same descriptors until they finish
// draining. The caller decides the steering policy: ingress pushes
// through the pipeline's flow-consistent indirection table, transit
// hashes modulo its chain count.
func (nd *node) runReader(r *netio.BatchReader, shard *pkt.PoolShard, push func(p *pkt.Packet) bool) {
	defer nd.wg.Done()
	defer r.Release()
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
		for _, p := range batch.Packets() {
			if len(p.Data) < pkt.EtherHdrLen+pkt.IPv4HdrLen {
				// Runt: not even a frame header — rejected for its header.
				nd.hdrDrops.Add(1)
				shard.Put(p)
				continue
			}
			if !push(p) {
				// Receive ring overflow: the reader is the packet's last owner.
				nd.rxDrops.Add(1)
				shard.Put(p)
			}
		}
	}
}

// newReader builds one ingress receive queue: a netio batch reader on
// its own pool shard (the RSS role's half of the shared-nothing bargain
// — no allocation lock is ever contended between readers, writers, and
// datapath cores), registered for the node's wire counters.
func (nd *node) newReader(conn *net.UDPConn) (*netio.BatchReader, *pkt.PoolShard) {
	shard := pkt.DefaultPool.Shard(int(poolShardSeq.Add(1)))
	r := netio.NewBatchReader(conn, nd.wire.netio(shard))
	nd.readers = append(nd.readers, r)
	return r, shard
}

// send queues the frame for a peer node's egress writer.
func (nd *node) send(to int, p *pkt.Packet) {
	nd.forwarded.Add(1)
	nd.enqueue(nd.txq[to], p)
}

// egress queues the frame for the external wire (to the collector).
func (nd *node) egress(p *pkt.Packet) {
	nd.egressed.Add(1)
	nd.enqueue(nd.sinkq, p)
}

func (nd *node) start() error {
	// Egress writers first, so the datapath never hits a cold queue.
	// Each queue gets its own netio batch writer (writers are
	// single-goroutine by contract, like the queues themselves).
	nd.sinkq = &txQueue{ring: exec.NewRing(4096), conn: nd.ext, addr: nd.sink,
		w: netio.NewBatchWriter(nd.ext, nd.wire.netio(nil))}
	if nd.sink == nil {
		// No collector configured (a mesh with no sink): egress frames
		// are recycled and accounted rather than written to a nil addr.
		nd.sinkq.dead.Store(true)
	}
	nd.wwg.Add(1)
	go nd.runWriter(nd.sinkq)
	nd.txq = make([]*txQueue, nd.n)
	for j := range nd.txq {
		if j == nd.id {
			continue
		}
		nd.txq[j] = &txQueue{ring: exec.NewRing(4096), conn: nd.int_, addr: nd.peers[j],
			w: netio.NewBatchWriter(nd.int_, nd.wire.netio(nil))}
		nd.wwg.Add(1)
		go nd.runWriter(nd.txq[j])
	}
	if err := nd.ingress.Start(); err != nil {
		return err
	}
	if err := nd.transit.Start(); err != nil {
		return err
	}
	// Ingress steers through the pipeline's RSS indirection table: both
	// directions of a 5-tuple and every fragment of a datagram land on
	// the same chain, so cloned per-flow elements (Reassembler,
	// FlowCounter) in a -config program stay correct — and the
	// controller can rebalance by rewriting buckets instead of
	// replanning. With one receive queue the reader is the table's sole
	// producer (PushFlow); SO_REUSEPORT queues are parallel producers,
	// so they serialize the ring push through PushFlowShared — the
	// kernel-side work (syscall, copy into the pool buffer) still
	// parallelizes across queues. Transit is MAC-only forwarding with no
	// per-flow state, so a plain modulo over its (fixed) chain count is
	// enough.
	ingressPush := nd.ingress.PushFlow
	if len(nd.extQs) > 1 {
		ingressPush = nd.ingress.PushFlowShared
	}
	for _, c := range nd.extQs {
		r, shard := nd.newReader(c)
		nd.wg.Add(1)
		go nd.runReader(r, shard, ingressPush)
	}
	transitChains := uint64(nd.transit.Chains())
	tr, tshard := nd.newReader(nd.int_)
	nd.wg.Add(1)
	go nd.runReader(tr, tshard, func(p *pkt.Packet) bool {
		return nd.transit.Input(int(p.FlowHash() % transitChains)).Push(p)
	})
	return nil
}

func (nd *node) shutdown() {
	if nd.ctrl != nil {
		nd.ctrl.Stop()
	}
	nd.stop.Store(true)
	// Wake blocked readers with an immediate deadline instead of Close:
	// the egress writers still send on these descriptors until their
	// final drain below.
	now := time.Now()
	for _, c := range nd.extQs {
		c.SetReadDeadline(now)
	}
	nd.int_.SetReadDeadline(now)
	nd.wg.Wait() // readers gone: nothing feeds the datapath
	nd.ingress.Stop()
	nd.transit.Stop() // cores halted: nothing feeds the egress queues
	nd.txStop.Store(true)
	nd.wwg.Wait() // writers flush what was queued, then exit
	for _, c := range nd.extQs {
		c.Close()
	}
	nd.int_.Close()
}

// reload hot-swaps the node's ingress program. Options inherit from the
// running pipeline (merge semantics), so the prebound FIB, VLB
// balancers, and drop counters rebind to the new graph's chains through
// the same closure — only Placement must be restated.
func (nd *node) reload(cfgText string, kind click.PlanKind) error {
	return nd.ingress.Reload(cfgText, routebricks.Options{Placement: kind})
}

func run() error {
	var (
		nNodes     = flag.Int("nodes", 4, "cluster size")
		packets    = flag.Int("packets", 20000, "packets to inject")
		rate       = flag.Int("rate", 40000, "injection rate (packets/sec)")
		flowlets   = flag.Bool("flowlets", true, "enable flowlet reordering avoidance")
		cores      = flag.Int("cores", 1, "datapath cores per node")
		placement  = flag.String("placement", "parallel", "core allocation: parallel, pipelined, or auto (calibrate and pick)")
		configPath = flag.String("config", "", "Click-language ingress program (default: embedded IP router config)")
		replanAuto = flag.Bool("replan-auto", false, "watch per-node load and Replan(auto) when the observed imbalance crosses the controller's threshold")
		printGraph = flag.Bool("print-graph", false, "print the ingress element graph as Graphviz dot and exit")
		pcapPath   = flag.String("pcap", "", "capture egress traffic to this pcap file")
		statsAddr  = flag.String("stats-addr", "", "serve the versioned admin API (stats, controller, live FIB routes, replan) on this HTTP address under /api/v1")
		steal      = flag.Bool("steal", false, "let idle datapath cores steal batches from overloaded siblings' input rings (trades flow affinity for utilization)")
		meshTopo   = flag.String("mesh", "", "run as ONE member of a multi-process mesh defined by this topology file (see cmd/rbmesh); requires -mesh-id")
		meshID     = flag.Int("mesh-id", -1, "this process's member id in the -mesh topology")
		rxQueues   = flag.Int("rx-queues", 1, "SO_REUSEPORT receive queues per node's ingress port (kernel-hashed multi-queue receive; Linux only for >1)")
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
	if *rxQueues < 1 || *rxQueues > 16 {
		return fmt.Errorf("rx-queues must be in [1,16]")
	}
	wire := wireConfig{rxQueues: *rxQueues, fallback: *wireFall}
	if *meshTopo != "" {
		return runMesh(*meshTopo, *meshID, cfgText, *flowlets, *cores, kind, autoPlace, *steal, wire)
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
		if nodes[i], err = newNode(i, *nNodes, fib, cfgText, *flowlets, *cores, kind, *steal, wire); err != nil {
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
			nd := nd
			nd.ctrl = nd.ingress.NewController(routebricks.ControllerConfig{
				Replan: func() error {
					cfgMu.Lock()
					text := cfgCurrent
					cfgMu.Unlock()
					probe, err := probePlacement(text, fib, *cores)
					if err != nil {
						return err
					}
					return nd.ingress.Replan(routebricks.Options{Placement: probe.Placement()})
				},
			})
			nd.ctrl.Start()
		}
		fmt.Println("replan-auto: per-node controllers watching ingress load")
	}
	fmt.Printf("rbrouter: %d nodes meshed over UDP, injecting %d packets at %d pps (flowlets=%v)\n",
		*nNodes, *packets, *rate, *flowlets)
	wireMode := "fallback"
	if netio.Available() && !wire.fallback {
		wireMode = "mmsg"
	}
	fmt.Printf("wire I/O: %s, %d ingress queue(s) per node\n", wireMode, *rxQueues)
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
			want := probe.Placement()
			for _, nd := range nodes {
				if err := nd.ingress.Replan(routebricks.Options{Placement: want}); err != nil {
					return fmt.Errorf("node %d: %w", nd.id, err)
				}
			}
			return nil
		}
		srv := &http.Server{Handler: newAdminMux(nodes, fib, replanAll, nil)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Printf("admin API: http://%s/api/v1/{stats,controller,routes,replan,rss}\n", ln.Addr())
	}

	// Collector: count deliveries and measure reordering. Frames arrive
	// in batches straight into pool buffers; the 2s quiescence deadline
	// is re-armed once per batch, not once per datagram.
	meter := stats.NewReorderMeter()
	var received atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		shard := pkt.DefaultPool.Shard(int(poolShardSeq.Add(1)))
		rd := netio.NewBatchReader(collector, wire.netio(shard))
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
	// SIGTERM/SIGINT stops injection early but still drains: the writers
	// flush every queued frame (counted in tx_drained) before the report.
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(term)
	start := time.Now()
	injected, stopping := 0, false
	// Injection goes out in 8-frame bursts through one netio writer —
	// one sendmmsg per burst on the fast path, matching the pacing
	// granularity below. WriteScatter carries a destination per frame,
	// so a burst spanning several input nodes still costs one syscall.
	inj := netio.NewBatchWriter(collector, wire.netio(nil))
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
			fmt.Println("rbrouter: signal received, draining egress queues")
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
		dests = append(dests, in.ext.LocalAddr().(*net.UDPAddr))
		injected++
		if i%8 == 7 {
			if err := flush(); err != nil {
				return err
			}
			time.Sleep(8 * interval) // pace in small bursts; Sleep granularity is coarse
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

	var forwarded, egressed, miss, hdr, rxd, drained uint64
	for _, nd := range nodes {
		forwarded += nd.forwarded.Load()
		egressed += nd.egressed.Load()
		miss += nd.routeMiss.Load()
		hdr += nd.hdrDrops.Load()
		rxd += nd.rxDrops.Load()
		drained += nd.txDrained.Load()
	}
	fmt.Printf("delivered %d/%d packets in %v (%.0f pps through the mesh)\n",
		received.Load(), injected, elapsed.Round(time.Millisecond),
		float64(received.Load())/elapsed.Seconds())
	fmt.Printf("internal forwards: %d, route misses: %d, header drops: %d, rx-ring drops: %d, shutdown-drained: %d\n",
		forwarded, miss, hdr, rxd, drained)
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
	for _, r := range nd.readers {
		s := r.Stats()
		w.RxBatches += s.Batches
		w.RxFrames += s.Frames
		w.RxTruncated += s.Truncated
		if r.Mode() == "mmsg" {
			w.Mode = "mmsg"
		}
	}
	for _, q := range append([]*txQueue{nd.sinkq}, nd.txq...) {
		if q == nil || q.w == nil {
			continue
		}
		s := q.w.Stats()
		w.TxBatches += s.Batches
		w.TxFrames += s.Frames
	}
	return w
}

func (nd *node) snapshot() nodeSnapshot {
	var transitPkts uint64
	for _, s := range nd.transit.Stats() {
		transitPkts += s.Packets()
	}
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
			TransitQueued:  nd.transit.Queued(),
			TransitPackets: transitPkts,
			Forwarded:      nd.forwarded.Load(),
			Egressed:       nd.egressed.Load(),
			RouteMisses:    nd.routeMiss.Load(),
			HeaderDrops:    nd.hdrDrops.Load(),
			RxDrops:        nd.rxDrops.Load(),
			TxBatches:      nd.txBatches.Load(),
			TxStalls:       nd.txStalls.Load(),
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
