package cluster

import (
	"fmt"

	"routebricks/internal/click"
	"routebricks/internal/elements"
	"routebricks/internal/exec"
	"routebricks/internal/hw"
	"routebricks/internal/pkt"
	"routebricks/internal/rss"
	"routebricks/internal/sim"
	"routebricks/internal/vlb"
)

// node is one cluster server: an external port, one internal port per
// peer, per-core click pipelines, a VLB balancer, and per-port transmit
// engines. Every port is a pair of per-core queue sets — queue i of each
// is owned by core i, the paper's "one core per queue" rule, so every
// ring is single-producer/single-consumer.
type node struct {
	c            *Cluster
	id           int
	extRX, extTX []*exec.Ring
	// peerRX[j]/peerTX[j] are the queues of the port facing peer j (nil
	// at j == id): RX receives from j (MAC-steered), TX sends to j.
	peerRX, peerTX [][]*exec.Ring
	// rxAll/txAll list every queue of the node, for occupancy and drop
	// accounting.
	rxAll, txAll []*exec.Ring
	bal          *vlb.Balancer
	// sched is the same static core-to-task assignment the live Runner
	// drives (internal/click); here the simulator steps it on virtual
	// time, so simulated and real execution share one placement type.
	sched   *click.Schedule
	cores   []*core
	engines []*txEngine
	failed  bool

	// ingressProg stamps out one independent copy of the ingress element
	// graph per core — the same per-chain instantiation protocol the
	// placement planner uses, so simulator pipelines and planner chains
	// are built by one mechanism.
	ingressProg *click.Program

	ttlDiscard  elements.Discard
	hdrDiscard  elements.Discard
	missDiscard elements.Discard
}

func newNode(c *Cluster, id int) *node {
	cfg := c.cfg
	cores := cfg.Spec.Cores()
	if cores < cfg.Nodes {
		panic(fmt.Sprintf("cluster: MAC steering needs cores (%d) ≥ nodes (%d)", cores, cfg.Nodes))
	}
	n := &node{c: c, id: id, sched: click.NewSchedule(cores)}
	queues := func(all *[]*exec.Ring) []*exec.Ring {
		qs := make([]*exec.Ring, cores)
		for i := range qs {
			qs[i] = exec.NewRing(cfg.QueueSize)
		}
		*all = append(*all, qs...)
		return qs
	}
	n.extRX, n.extTX = queues(&n.rxAll), queues(&n.txAll)
	n.peerRX = make([][]*exec.Ring, cfg.Nodes)
	n.peerTX = make([][]*exec.Ring, cfg.Nodes)
	for j := 0; j < cfg.Nodes; j++ {
		if j != id {
			n.peerRX[j], n.peerTX[j] = queues(&n.rxAll), queues(&n.txAll)
		}
	}
	n.bal = vlb.New(vlb.Config{
		Nodes:       cfg.Nodes,
		Self:        id,
		LineRateBps: cfg.LineRateBps,
		LinkCapBps:  cfg.FitCapBps,
		Delta:       cfg.Delta,
		Flowlets:    cfg.Flowlets,
		Seed:        cfg.Seed,
	})
	n.ingressProg = n.ingressProgram()
	return n
}

// ingressProgram builds the node's ingress datapath as a click.Program:
// CheckIPHeader → LPMLookup → DecIPTTL → vlbIngress, with the error
// ports bound to the node's shared recycling discards (safe here: the
// simulator's event loop is single-threaded, and the discards count
// atomically anyway). Each chain is one core's independent copy; the
// chain index doubles as the core (and so TX queue) index.
func (n *node) ingressProgram() *click.Program {
	return click.NewProgram(func(chain int) (*click.Router, error) {
		r := click.NewRouter()
		check := &elements.CheckIPHeader{}
		look := elements.NewLPMLookup(n.c.table)
		ttl := &elements.DecIPTTL{}
		ing := &vlbIngress{n: n, idx: chain}
		ing.build()
		for _, add := range []struct {
			name string
			el   click.Element
		}{{"check", check}, {"route", look}, {"ttl", ttl}, {"vlb", ing}} {
			if err := r.Add(add.name, add.el); err != nil {
				return nil, err
			}
		}
		for _, c := range [][2]string{{"check", "route"}, {"route", "ttl"}, {"ttl", "vlb"}} {
			if err := r.Connect(c[0], 0, c[1], 0); err != nil {
				return nil, err
			}
		}
		check.SetBatchOutput(1, click.BatchDispatch(&n.hdrDiscard, 0))
		look.SetBatchOutput(1, click.BatchDispatch(&n.missDiscard, 0))
		ttl.SetOutput(1, func(ctx *click.Context, p *pkt.Packet) {
			n.c.ttlDrops++
			n.ttlDiscard.Push(ctx, 0, p)
		})
		return r, nil
	})
}

// transitProgram builds one core's transit datapath as a click.Program
// keyed on the steering queue: queue q carries output node q mod Nodes.
func (n *node) transitProgram(coreIdx int) *click.Program {
	return click.NewProgram(func(q int) (*click.Router, error) {
		r := click.NewRouter()
		tr := &vlbTransit{n: n, idx: coreIdx, outNode: q % n.c.cfg.Nodes}
		tr.build()
		return r, r.Add("transit", tr)
	})
}

// start builds per-core pipelines and transmit engines and schedules
// their first events, staggered to avoid lockstep artifacts.
func (n *node) start() {
	eng := n.c.eng
	for i := 0; i < n.c.cfg.Spec.Cores(); i++ {
		co := newCore(n, i)
		n.cores = append(n.cores, co)
		off := sim.Time(i) * 100 * sim.Nanosecond
		eng.Schedule(off, co.step)
	}
	// One transmit engine per port: external egress plus each peer link.
	n.engines = append(n.engines, newTxEngine(n, n.extTX, -1))
	for j, tx := range n.peerTX {
		if tx != nil {
			n.engines = append(n.engines, newTxEngine(n, tx, j))
		}
	}
	for k, e := range n.engines {
		off := sim.Time(k)*137*sim.Nanosecond + 500*sim.Nanosecond
		eng.Schedule(off, e.service)
	}
}

// receive is a port's wire-side receive path: steer p to one of its
// queues and enqueue it. from is the peer the frame arrives from, or -1
// for the external wire. A full queue counts the rejection — the port's
// receive drop — and leaves p with the caller.
func (n *node) receive(from int, p *pkt.Packet) bool {
	if from < 0 {
		// The external port's receive-side scaling: the same static
		// RSS table and symmetric flow hash Load's PushFlow steers by.
		return n.extRX[rss.Chain(p.RSSHash(), len(n.extRX))].Push(p)
	}
	rx := n.peerRX[from]
	return rx[macQueue(p, len(rx))].Push(p)
}

// macQueue is RB4's MAC steering (§6.1): the ingress node encoded the
// output node (plus flow-hash split bits above it) in the destination
// MAC, so an internal port picks the receive queue without touching the
// IP header.
func macQueue(p *pkt.Packet, queues int) int {
	return p.Ether().Dst().Node() % queues
}

func (n *node) queued() int { return occupancy(n.rxAll) + occupancy(n.txAll) }

// occupancy sums the packets queued across rings.
func occupancy(rings []*exec.Ring) int {
	total := 0
	for _, r := range rings {
		total += r.Len()
	}
	return total
}

// rejected sums the full-queue rejections across rings: packets a port
// could not accept.
func rejected(rings []*exec.Ring) uint64 {
	var d uint64
	for _, r := range rings {
		d += r.Rejected()
	}
	return d
}

// core is one CPU core: it owns receive queue index `idx` on every port
// of its node (the paper's "one core per queue" rule) and runs the
// pipelines attached to those queues. Its poll tasks are bound to the
// node's click.Schedule; step executes one quantum of that schedule.
type core struct {
	n   *node
	idx int
	ctx *click.Context
}

func newCore(n *node, idx int) *core {
	c := &core{n: n, idx: idx}
	c.ctx = &click.Context{NowNS: func() int64 { return int64(n.c.eng.Now()) }}
	cfg := n.c.cfg

	// Ingress pipeline: external queue idx → CheckIPHeader → LPMLookup →
	// DecIPTTL → vlbIngress → per-destination ToDevice, instantiated as
	// this core's chain of the node's ingress Program — the same
	// stamp-one-copy-per-chain protocol click.NewPlan uses. The good
	// path is wired batch-to-batch by Router.Connect, so one kp-packet
	// poll travels the whole pipeline as a single dispatch per hop;
	// error ports (rare) divert per packet into the recycling discards.
	inst, err := n.ingressProg.Instantiate(idx)
	if err != nil {
		panic(fmt.Sprintf("cluster: ingress program: %v", err))
	}
	poll := elements.NewPollDevice(n.extRX[idx], cfg.KP)
	poll.SetBatchOutput(0, click.BatchDispatch(inst.Entry(), 0))
	n.sched.MustBind(idx, poll)

	// Transit pipelines: queue q of an internal port carries packets
	// whose output node is q (MAC steering). Queue q of the port facing
	// peer j is polled by core (q+j) mod cores, so one output node's
	// traffic — which lands in queue q on *every* port — spreads across
	// as many cores as the node has internal ports, while each queue
	// still has exactly one core (§4.2's rule).
	cores := cfg.Spec.Cores()
	transit := n.transitProgram(idx)
	for j, rx := range n.peerRX {
		if rx == nil {
			continue
		}
		q := ((idx-j)%cores + cores) % cores
		if q >= cfg.Nodes*n.c.splitFactor() {
			continue // MAC steering uses only Nodes×split queues
		}
		tinst, err := transit.Instantiate(q)
		if err != nil {
			panic(fmt.Sprintf("cluster: transit program: %v", err))
		}
		tpoll := elements.NewPollDevice(rx[q], cfg.KP)
		tpoll.SetBatchOutput(0, click.BatchDispatch(tinst.Entry(), 0))
		n.sched.MustBind(idx, tpoll)
	}
	return c
}

// step is one scheduling quantum: run every task bound to this core in
// the node's schedule once, then come back after the consumed virtual
// CPU time.
func (c *core) step() {
	if c.n.failed {
		return // crashed: no reschedule until RecoverNode
	}
	packets := c.n.sched.RunStep(c.idx, c.ctx)
	cycles := c.ctx.TakeCycles()
	next := sim.Time(cycles / c.n.c.cfg.Spec.ClockHz * float64(sim.Second))
	if packets == 0 && next < idleRepoll {
		next = idleRepoll
	}
	if next < 10*sim.Nanosecond {
		next = 10 * sim.Nanosecond
	}
	c.n.c.eng.After(next, c.step)
}

// vlbIngress is one of RB4's two new elements (§6.1): it takes a packet
// whose output node was just resolved by the route lookup (NextHop
// annotation), consults the VLB balancer, encodes the output node in the
// destination MAC, and queues the packet toward the chosen next node.
type vlbIngress struct {
	click.Base
	n     *node
	idx   int // core (and so TX queue) index
	toExt *elements.ToDevice
	to    []*elements.ToDevice // per peer node

	// Per-destination scatter batches, refilled on every PushBatch so the
	// TX path stays batch-native from poll to descriptor ring.
	scratchExt *pkt.Batch
	scratch    []*pkt.Batch
}

func (v *vlbIngress) build() {
	n := v.n
	kn := n.c.cfg.KN
	kp := n.c.cfg.KP
	v.toExt = elements.NewToDevice(n.extTX[v.idx], kn)
	v.scratchExt = pkt.NewBatch(kp)
	v.to = make([]*elements.ToDevice, n.c.cfg.Nodes)
	v.scratch = make([]*pkt.Batch, n.c.cfg.Nodes)
	for j, tx := range n.peerTX {
		if tx != nil {
			v.to[j] = elements.NewToDevice(tx[v.idx], kn)
			v.scratch[j] = pkt.NewBatch(kp)
		}
	}
}

// InPorts reports 1.
func (v *vlbIngress) InPorts() int { return 1 }

// OutPorts reports 0 (terminal: hands off to transmit rings).
func (v *vlbIngress) OutPorts() int { return 0 }

// Push routes the packet into the cluster.
func (v *vlbIngress) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(v, ctx, port, p)
}

// route makes the VLB decision for one packet — annotating phase,
// rewriting the steering MAC — and returns the chosen next node, or -1
// for the local external port.
func (v *vlbIngress) route(ctx *click.Context, p *pkt.Packet) int {
	n := v.n
	out := p.NextHop // output node, resolved by LPMLookup against the FIB
	p.VLBPhase = 1
	if out == n.id {
		// Hairpin: destined to this node's own external port.
		return -1
	}
	// The steering MAC carries the output node plus flow-hash bits above
	// it, sharding each output's egress work across split queues (and so
	// cores) at every downstream port. Per-flow stable, so no reordering.
	steer := out
	if split := n.c.splitFactor(); split > 1 {
		steer = out + n.c.cfg.Nodes*int((p.FlowHash()>>16)%uint64(split))
	}
	p.Ether().SetSrc(pkt.NodeMAC(n.id))
	p.Ether().SetDst(pkt.NodeMAC(steer))
	return n.bal.Route(sim.Time(ctx.Now()), p, out).Next
}

// PushBatch routes a whole poll batch: the balancer decision is still
// per packet (VLB spreads flowlets), but packets are regrouped into
// per-destination batches so each transmit ring sees one bulk enqueue —
// the TX side of the paper's kn batching as a code path.
func (v *vlbIngress) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	n := v.n
	cnt := b.Compact()
	if cnt == 0 {
		return
	}
	if n.c.cfg.Flowlets {
		ctx.Charge(hw.ReorderTaxCycles * float64(cnt))
	}
	for i, p := range b.Packets() {
		b.Drop(i)
		next := v.route(ctx, p)
		if next < 0 {
			v.scratchExt.Add(p)
			continue
		}
		v.scratch[next].Add(p)
	}
	b.Reset()
	if v.scratchExt.Len() > 0 {
		v.toExt.PushBatch(ctx, 0, v.scratchExt)
	}
	for j, s := range v.scratch {
		if s != nil && s.Len() > 0 {
			v.to[j].PushBatch(ctx, 0, s)
		}
	}
}

// vlbTransit is the second RB4 element: packets arriving on an internal
// port's queue o belong to output node o; forward them there (phase 2)
// or out the external port (egress) without header processing.
type vlbTransit struct {
	click.Base
	n       *node
	idx     int // core (and so TX queue) index
	outNode int
	toExt   *elements.ToDevice
	toPeer  *elements.ToDevice
}

func (v *vlbTransit) build() {
	n := v.n
	kn := n.c.cfg.KN
	if v.outNode == n.id {
		v.toExt = elements.NewToDevice(n.extTX[v.idx], kn)
	} else {
		v.toPeer = elements.NewToDevice(n.peerTX[v.outNode][v.idx], kn)
	}
}

// InPorts reports 1.
func (v *vlbTransit) InPorts() int { return 1 }

// OutPorts reports 0.
func (v *vlbTransit) OutPorts() int { return 0 }

// Push moves the packet along without touching its headers.
func (v *vlbTransit) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(v, ctx, port, p)
}

// PushBatch moves a whole batch along. Every packet in queue q belongs
// to output node q (MAC steering), so the batch maps to exactly one
// transmit ring — the ideal case for bulk enqueue.
func (v *vlbTransit) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	for _, p := range b.Packets() {
		if p != nil {
			p.VLBPhase++
		}
	}
	if v.toExt != nil {
		v.toExt.PushBatch(ctx, 0, b)
		return
	}
	v.toPeer.PushBatch(ctx, 0, b)
}

// txEngine is the NIC-side transmit DMA engine for one port: it forms
// kn-packet descriptor batches (waiting up to TxTimeout), pays the DMA
// transfer time, and serializes packets onto the link.
type txEngine struct {
	n    *node
	tx   []*exec.Ring // the port's transmit queues
	peer int          // destination node, or -1 for the external wire

	cursor       int
	linkBusy     sim.Time
	pendingSince sim.Time
	batch        *pkt.Batch
}

func newTxEngine(n *node, tx []*exec.Ring, peer int) *txEngine {
	return &txEngine{n: n, tx: tx, peer: peer, pendingSince: -1,
		batch: pkt.NewBatch(n.c.cfg.KN)}
}

// drain fills the descriptor batch from the transmit queues, visiting
// them round-robin from the cursor (which advances) — the DMA engine's
// view; kn batching is applied by service, which schedules the
// transactions.
func (e *txEngine) drain() int {
	e.batch.Reset()
	for range e.tx {
		q := e.tx[e.cursor%len(e.tx)]
		e.cursor++
		q.PopBatchInto(e.batch, e.batch.Cap())
		if e.batch.Len() == e.batch.Cap() {
			break
		}
	}
	return e.batch.Len()
}

func (e *txEngine) service() {
	if e.n.failed {
		return // crashed: no reschedule until RecoverNode
	}
	now := e.n.c.eng.Now()
	defer e.n.c.eng.Schedule(now+txService, e.service)

	occ := occupancy(e.tx)
	if occ == 0 {
		e.pendingSince = -1
		return
	}
	if e.pendingSince < 0 {
		e.pendingSince = now
	}
	kn := e.n.c.cfg.KN
	if occ < kn && now-e.pendingSince < e.n.c.cfg.TxTimeout {
		return // keep waiting for a full batch
	}
	if e.linkBusy > now+maxLinkBacklog {
		return // link backpressure: leave packets in the rings
	}
	k := e.drain()
	if k == 0 {
		e.pendingSince = -1
		return
	}
	linkBps := e.n.c.cfg.LinkBps
	if e.peer < 0 {
		linkBps = e.n.c.cfg.LineRateBps
	}
	depart := now + TxDMA
	if e.linkBusy > depart {
		depart = e.linkBusy
	}
	for _, p := range e.batch.Packets() {
		ser := sim.Time(float64(p.Len()*8) / linkBps * float64(sim.Second))
		depart += ser
		e.deliver(depart+LinkPropagation, p)
	}
	e.batch.Reset()
	e.linkBusy = depart
	if occupancy(e.tx) > 0 {
		e.pendingSince = now
	} else {
		e.pendingSince = -1
	}
}

// deliver schedules the packet's arrival at the far end of the link.
func (e *txEngine) deliver(at sim.Time, p *pkt.Packet) {
	c := e.n.c
	c.flying++
	if e.peer < 0 {
		// External wire: the packet has left the router.
		c.eng.Schedule(at, func() {
			c.flying--
			c.measure(p)
		})
		return
	}
	from := e.n.id
	to := e.peer
	c.eng.Schedule(at, func() {
		c.eng.After(RxDMA, func() {
			c.flying--
			if c.nodes[to].failed {
				c.failureDrops++
				pkt.DefaultPool.Put(p)
				return
			}
			if !c.nodes[to].receive(from, p) {
				// Receive ring overflow: the ring counted the drop; the
				// buffer's life ends here.
				pkt.DefaultPool.Put(p)
			}
		})
	})
}

// measure records a delivered packet.
func (c *Cluster) measure(p *pkt.Packet) {
	lat := float64(int64(c.eng.Now())-p.Arrival) / 1000 // µs
	c.Latency.Add(lat)
	c.Meter.Observe(p.FlowHash(), p.SeqNo)
	if p.InputPort >= 0 && p.InputPort < len(c.DeliveredByInput) {
		c.DeliveredByInput[p.InputPort]++
	}
	phase := p.VLBPhase
	if phase < 0 {
		phase = 0
	}
	if phase > 3 {
		phase = 3
	}
	c.Hops[phase]++
	// The packet has left the router and been measured: its buffer goes
	// back to the pool, closing the allocation loop with the workload's
	// pkt.New calls.
	pkt.DefaultPool.Put(p)
}
