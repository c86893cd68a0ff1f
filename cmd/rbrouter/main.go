// Command rbrouter is one RouteBricks server: ONE member of a
// Valiant-load-balanced mesh of such processes, moving real
// IPv4-in-UDP frames over actual UDP sockets through the same element
// pipelines, DIR-24-8 lookup, and Direct-VLB/flowlet logic as the
// simulation — but on wall-clock time and OS sockets (stdlib net only).
// The paper's RB4 is N copies of one server; a topology file (-mesh,
// see docs/mesh.md) tells this copy where its peers are, and cmd/rbmesh
// is the way to run a cluster: it boots and supervises N members on one
// machine, injects traffic and collects what they deliver.
//
// It demonstrates the programmability claim of the paper: the member's
// ingress datapath is a Click-language program loaded through
// routebricks.Load — the default is the embedded config below, and
// -config swaps in any .click file written against the standard element
// registry plus the prebound names the command supplies:
//
//	fib        LPMLookup bound to the member's live FIB (member d owns 10.d.0.0/16)
//	vlb        terminal Direct-VLB forwarder (MAC rewrite + mesh emit)
//	badhdr     counting drop for CheckIPHeader failures (header_drops)
//	badttl     counting drop for expired TTLs (ttl_drops, also in header_drops)
//	missroute  counting drop for FIB misses (route_misses)
//
// The FIB is a routebricks.RouteAdmin (RCU generation-swapped live
// table, bound through Options.FIB): routes can be added and withdrawn
// while the member forwards at full rate, and the admin API exposes
// exactly that — route changes commit once and reach the datapath cores
// without a reload.
//
// The framework parallelizes whatever graph the config describes:
// -cores picks the core count and -placement the §4.2 allocation
// (parallel = every core runs an independent copy of the whole graph on
// its own queue; pipelined = the graph's trunk is cut across cores,
// joined by SPSC handoff rings), driven on real goroutines.
//
// The member runs to completion on the wire. A -cores N member binds N
// SO_REUSEPORT sockets on its external port — the kernel's flow hash is
// the RSS stage — and one goroutine per socket reads a batch
// (recvmmsg), runs the Click graph inline (Pipeline.RunBatch) and
// sends what it routed (sendmmsg) before it reads again. Each run of
// equal-length frames to the collector leaves as one UDP GSO message,
// so the kernel walks it down the output path once, and the line
// sockets set UDP GRO, so such a run from a sender arrives as one
// buffer the loop cuts into frames. Frames for peers cross the mesh
// packed into bundles, one datagram per peer per flush (docs/mesh.md).
// The wire block of the stats reports tx_frames/tx_sends, segments per
// GRO buffer and frames per bundle. Frames the kernel refuses count in
// tx_errors, not as forwarded.
// One more loop does the same for transit frames on the mesh socket. An
// idle loop parks in recvmmsg on the runtime poller: nothing polls,
// nothing sleeps, and no frame waits in a queue. A pipelined placement
// runs its first stage on the socket loops and hands off to runner
// cores, so §4.2's comparison runs on the wire as well. Tunnelled line
// traffic from one sender shares one outer 4-tuple, so it all lands on
// one socket loop.
//
// The member is live-operable while it runs: SIGHUP re-reads -config
// (or the embedded program) and hot-swaps the ingress pipeline under
// the library's drain barrier (prebound FIB/VLB resources carry over; a
// bad config is reported and the old datapath keeps forwarding), and
// the topology's api address serves the versioned admin API (stats,
// membership, live FIB route ops) as JSON over HTTP.
//
// Usage ($API is the member's "api" address in the topology file):
//
//	rbmesh -n 3 -cores 2 -placement auto     # a 3-member cluster on this machine
//	rbrouter -mesh topo.json -mesh-id 0      # one member by hand
//	rbrouter -mesh topo.json -mesh-id 0 -cores 4 -placement auto
//	rbrouter -mesh topo.json -mesh-id 0 -config my.click
//	curl http://$API/api/v1/stats        # this member's snapshot
//	curl http://$API/api/v1/mesh         # membership view
//	curl http://$API/api/v1/routes       # live FIB listing + generation
//	curl -X POST -d '{"add":[{"prefix":"192.0.2.0/24","next_hop":1}]}' \
//	     http://$API/api/v1/routes       # commit a route batch live
//	curl -X DELETE "http://$API/api/v1/routes?prefix=192.0.2.0/24"
//	kill -HUP <pid>               # reload -config into the running datapath
//	rbrouter -print-graph         # dump the ingress graph as Graphviz dot and exit
//	rbrouter -print-graph | dot -Tsvg > graph.svg
package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/elements"
	"routebricks/internal/netio"
	"routebricks/internal/pkt"
	"routebricks/internal/sim"
	"routebricks/internal/stats"
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

// poolShardSeq deals pool shards out to the long-lived socket loops
// round-robin, so no two of them share a shard lock by accident. Runner
// cores get their shards from the plan.
var poolShardSeq atomic.Uint32

func nextShard() *pkt.PoolShard { return pkt.DefaultPool.Shard(int(poolShardSeq.Add(1))) }

// node is the member's datapath. Its ext sockets receive line traffic
// and emit egress frames to the collector; int carries mesh links to
// peers. Its datapath is a loaded Click pipeline for ingress (the
// -config program) plus MAC-only transit, both run to completion by the
// loop that owns the socket a frame arrived on.
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

	ingress   *routebricks.Pipeline
	placement click.PlanKind // as requested by -placement; every reload restates it
	swapMu    sync.Mutex     // serializes swaps with the placement that follows each

	// members is the membership record in force. restripe publishes a
	// new one; each chain's owner applies it to its VLB balancer before
	// its next batch, and egress reads it to drain frames for a dead peer.
	members atomic.Pointer[membership]

	stop atomic.Bool
	wg   sync.WaitGroup

	forwarded atomic.Uint64 // frames the kernel took for a peer
	egressed  atomic.Uint64 // frames the kernel took for the collector
	routeMiss atomic.Uint64
	hdrDrops  atomic.Uint64 // header rejects other than TTL expiry
	ttlDrops  atomic.Uint64
	transited atomic.Uint64 // frames the transit loop handled
	txDrained atomic.Uint64 // frames for a dead peer or a missing collector (accounted, not lost)
	txErrors  atomic.Uint64 // frames routed for the wire whose send failed
}

// membership is one immutable membership record: gen counts the changes
// published since start, and live[j] reports member j up (nil at
// generation 0, when every member is).
type membership struct {
	gen  uint64
	live []bool
}

// up reports whether member j is alive in m.
func (m *membership) up(j int) bool { return m.live == nil || m.live[j] }

// egress is one goroutine's transmit side. Frames gather while a batch
// is routed and leave before the call that routed them returns: one
// sendmmsg on the mesh socket carries every peer's frames, packed into
// bundles (one per peer unless a flush spills past netio.BundleCap),
// and one on an ext socket reaches the collector, so delivered frames
// leave from the node's line port one datagram each. A frame is never
// queued, and each destination sees frames in the order they were
// routed.
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
	case j < nd.n && nd.members.Load().up(j):
		e.mesh.Add(p)
		e.to = append(e.to, nd.peers[j])
	case j == nd.n && nd.sink != nil:
		e.line.Add(p)
	default:
		// A dead peer, or no collector configured: recycling beats
		// blackholing, and tx_drained accounts every frame.
		nd.txDrained.Add(1)
		ctx.Recycle(p)
	}
}

// flush sends what add gathered. The kernel copies at syscall time, so
// the frames recycle at once, into the running goroutine's shard. What
// the kernel took counts as forwarded or egressed, in frames; a send
// error loses the rest as the wire would, counted in tx_errors. Mesh
// frames always cross in bundles.
func (e *egress) flush(ctx *click.Context) {
	nd := e.nd
	if n := e.mesh.Len(); n > 0 {
		sent, _ := e.meshW.WriteBundles(e.mesh.Packets(), e.to)
		nd.forwarded.Add(uint64(sent))
		nd.txErrors.Add(uint64(n - sent))
		e.to = e.to[:0]
		ctx.RecycleBatch(e.mesh)
	}
	if n := e.line.Len(); n > 0 {
		sent, _ := e.lineW.WriteBatch(e.line.Packets(), nd.sink)
		nd.egressed.Add(uint64(sent))
		nd.txErrors.Add(uint64(n - sent))
		ctx.RecycleBatch(e.line)
	}
}

// prebound resolves the instances a node's Click program may name, for
// one chain. The `fib` name binds through Options.FIB (the cluster's
// shared live table — each chain's LPMLookup snapshots it per batch);
// each chain gets its own VLB balancer and egress, which are
// single-threaded by contract, and a chain runs on one goroutine at a
// time. A balancer starts striped over every member at generation 0, so
// one built after a membership change re-stripes on its first batch.
func (nd *node) prebound(flowlets bool, chain int) map[string]routebricks.Element {
	return map[string]routebricks.Element{
		"vlb": &udpForward{
			bal: vlb.New(vlb.Config{
				Nodes: nd.n, Self: nd.id,
				LineRateBps: 1e9, // demo-scale line rate for the quota clock
				LinkCapBps:  1e9,
				Flowlets:    flowlets,
				Seed:        int64(nd.id)*64 + int64(chain) + 1,
			}),
			tx: nd.newEgress(nd.exts[chain%len(nd.exts)]),
		},
		"badhdr":    countDrop(&nd.hdrDrops),
		"badttl":    countDrop(&nd.ttlDrops),
		"missroute": countDrop(&nd.routeMiss),
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

// newNodeOnConns builds a node's datapath on caller-bound sockets: the
// addresses the topology file assigns this member. exts is the ingress
// socket set: SO_REUSEPORT siblings on one port acting as kernel-hashed
// receive queues (netio.ListenReusePort), one per core.
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
		peers: make([]*net.UDPAddr, n), placement: kind,
	}
	nd.members.Store(&membership{})
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
	gen uint64 // membership generation bal is striped for
	tx  *egress
}

// InPorts reports 1.
func (f *udpForward) InPorts() int { return 1 }

// OutPorts reports 0: the socket is the output.
func (f *udpForward) OutPorts() int { return 0 }

// PushBatch routes a batch into the cluster and sends it before
// returning.
func (f *udpForward) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	f.restripe()
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
func (f *udpForward) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(f, ctx, port, p)
}

// restripe applies the node's membership record to the balancer when it
// changed since the last batch: the chain's owner is the balancer's only
// caller, so the new live vector lands between batches, with no lock and
// no plan swap.
func (f *udpForward) restripe() {
	if m := f.tx.nd.members.Load(); m.gen != f.gen {
		f.bal.Restripe(m.live)
		f.gen = m.gen
	}
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
				ctx.Recycle(p)
				continue
			}
			tx.add(ctx, out, p)
		}
		tx.flush(ctx)
		b.Reset()
	}
}

// runLoop is one datapath core: it owns one socket from recvmmsg to
// sendmmsg. Each turn reads a batch of frames into pool buffers (netio
// cuts them from GRO buffers or bundles, or points the kernel's iovecs
// at the buffers), drops runts, and hands the rest to run — the
// ingress graph or transit — which flushes its egress before returning,
// so nothing is in flight when the next read starts. Frames a read
// staged beyond the batch come back from the next read without a
// syscall. An idle loop parks in the read on the runtime poller, with
// no deadline; shutdown wakes it with an immediate-deadline poke. The
// loop's pool shard and the wall clock ride on the context, so every
// recycle on the way — runts, counting drops, sent frames — stays
// shard-local, and timed elements see real time.
func (nd *node) runLoop(r *netio.BatchReader, shard *pkt.PoolShard, run func(*click.Context, *pkt.Batch)) {
	defer nd.wg.Done()
	defer r.Release()
	ctx := &click.Context{PoolShard: shard, NowNS: click.WallNS}
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
// pool shard, registered for the node's wire counters. Line ports read
// UDP GRO buffers and the mesh socket reads bundles. -wire-fallback
// only picks the syscall path: its line ports read plain datagrams and
// its mesh socket still reads bundles, one per call.
func (nd *node) newReader(conn *net.UDPConn, framing netio.Framing) (*netio.BatchReader, *pkt.PoolShard) {
	shard := nextShard()
	r := netio.NewBatchReader(conn, netio.Config{Shard: shard, ForceFallback: nd.fallback, Framing: framing})
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
		r, shard := nd.newReader(c, netio.GRO)
		nd.wg.Add(1)
		go nd.runLoop(r, shard, func(ctx *click.Context, b *pkt.Batch) { nd.ingress.RunBatch(q, ctx, b) })
	}
	r, shard := nd.newReader(nd.int_, netio.Bundles)
	nd.wg.Add(1)
	go nd.runLoop(r, shard, nd.transit(nd.newEgress(nd.exts[0])))
	return nil
}

// shutdown stops the loops — each flushes its last batch before it
// exits — then the pipelined Runner, if any, and closes the sockets.
func (nd *node) shutdown() {
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

// swap applies one Reload and places the result. swapMu keeps
// concurrent swaps from placing a plan they did not install.
func (nd *node) swap(do func() error) error {
	nd.swapMu.Lock()
	defer nd.swapMu.Unlock()
	if err := do(); err != nil {
		return err
	}
	return nd.place()
}

// restripe publishes a new membership vector and returns its generation.
// From the store on, frames routed to a dead peer drain into tx_drained,
// and each chain's balancer re-divides the direct quota over the live
// members before its next batch. The program and plan in force stay as
// they are. It has one writer, the mesh's serialized OnChange.
func (nd *node) restripe(live []bool) uint64 {
	gen := nd.members.Load().gen + 1
	nd.members.Store(&membership{gen: gen, live: append([]bool(nil), live...)})
	return gen
}

// hup is the member's SIGHUP handler: it re-reads the -config file at
// path, or takes the embedded program when path is empty, and hot-swaps
// it in under the requested placement, so Auto decides afresh for the
// new program. Options inherit from the running pipeline (merge
// semantics), so the prebound FIB, VLB balancers, and drop counters
// rebind to the new graph's chains through the same closure — only
// Placement must be restated. On error the running program keeps
// forwarding.
func (nd *node) hup(path string) error {
	text, err := readProgram(path)
	if err != nil {
		return err
	}
	return nd.swap(func() error { return nd.ingress.Reload(text, routebricks.Options{Placement: nd.placement}) })
}

// readProgram returns the text of the -config file at path, or the
// embedded program when path is empty.
func readProgram(path string) (string, error) {
	if path == "" {
		return defaultConfig, nil
	}
	raw, err := os.ReadFile(path)
	return string(raw), err
}

// wireSnapshot sums the node's netio reader and writer counters into
// the admin API's wire block. Mode reports "mmsg" if any socket runs
// the fast path ("fallback" only when all do not); the mean syscall
// fill — what batching exists to raise — is RxFrames/RxBatches and
// TxFrames/TxBatches, and TxFrames/TxSends is the frames per send. The
// line ports' GRO readers and the mesh socket's bundle reader report
// their datagrams apart, so RxGROFrames/RxGROBuffers is the segments
// per GRO buffer and TxBundled/TxBundles the frames per bundle.
func (nd *node) wireSnapshot() *stats.WireSnapshot {
	w := &stats.WireSnapshot{Mode: "fallback"}
	nd.wireMu.Lock()
	defer nd.wireMu.Unlock()
	for _, r := range nd.readers {
		s := r.Stats()
		w.RxBatches += s.Batches
		w.RxFrames += s.Frames
		w.RxTruncated += s.Truncated
		w.RxMalformed += s.Malformed
		switch r.Framing() {
		case netio.GRO:
			w.RxGROBuffers += s.Coalesced
			w.RxGROFrames += s.Frames
		case netio.Bundles:
			w.RxBundles += s.Coalesced
		}
		if r.Mode() == "mmsg" {
			w.Mode = "mmsg"
		}
	}
	for _, wr := range nd.writers {
		s := wr.Stats()
		w.TxBatches += s.Batches
		w.TxFrames += s.Frames
		w.TxSends += s.Sends
		w.TxBundles += s.Bundles
		w.TxBundled += s.Bundled
	}
	return w
}

// snapshot reads the node's counters in the stats.NodeStats wire shape
// that rbmesh and the benchmark harness decode. TransitQueued, RxDrops
// and TxStalls stay zero: no frame waits in a queue on the node, and a
// full socket buffer parks the loop in sendmmsg instead of stalling a
// ring.
func (nd *node) snapshot() stats.NodeStats {
	ing := nd.ingress.Snapshot()
	ing.Wire = nd.wireSnapshot()
	ttl := nd.ttlDrops.Load()
	return stats.NodeStats{
		ID:             nd.id,
		Ingress:        ing,
		TransitPackets: nd.transited.Load(),
		Forwarded:      nd.forwarded.Load(),
		Egressed:       nd.egressed.Load(),
		RouteMisses:    nd.routeMiss.Load(),
		HeaderDrops:    nd.hdrDrops.Load() + ttl,
		TTLDrops:       ttl,
		TxBatches:      ing.Wire.TxBatches,
		TxDrained:      nd.txDrained.Load(),
		TxErrors:       nd.txErrors.Load(),
		Restripes:      nd.members.Load().gen,
	}
}

// parsePlacement maps the -placement flag to a plan kind by its name;
// Auto stays Auto, for routebricks.Load to resolve on every plan it
// builds.
func parsePlacement(s string) (click.PlanKind, error) {
	for _, k := range []click.PlanKind{click.Parallel, click.Pipelined, click.Auto} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("placement must be parallel, pipelined, or auto, got %q", s)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rbrouter:", err)
		os.Exit(1)
	}
}
