package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/elements"
	"routebricks/internal/exec"
	"routebricks/internal/netio"
	"routebricks/internal/pkt"
	"routebricks/internal/sim"
	"routebricks/internal/vlb"
)

// The traced run. Spans cannot yet be recorded inside rbrouter, so the
// node's packet path is assembled here, serially and in this process,
// from the layers' public functions, with a span around each call:
//
//	netio.rx → steer.pushflow → click.step → exec.txq → netio.tx → pkt.pool
//
// per 32-frame batch, over real loopback sockets for the wire workloads
// and with the pool standing in for the wire on the mem workloads. This
// is the paper's serial cycles-per-packet table, not the concurrent
// node: what cpu_us_per_pkt shows above trace.budget_ns_per_pkt is the
// cost of goroutine handoffs, idle polling and the scheduler.

const (
	traceBatch = 32
	// traceBlock is how many batches run with recording on before as
	// many run with it off; alternating keeps host drift out of the
	// overhead comparison.
	traceBlock = 64
	// maxSpansWritten caps trace.json at the run's first spans; the
	// metrics are computed from all of them.
	maxSpansWritten = 1 << 16
	// elementRounds is how many batches each stand-alone element loop runs.
	elementRounds = 4096
)

// traceQueue is rbrouter's txQueue as seen from outside: an exec.Ring
// whose pushes serialize on a mutex, drained by one batch writer.
type traceQueue struct {
	mu   sync.Mutex
	ring *exec.Ring
}

// traceTerminal stands where rbrouter's udpForward element does: it
// rewrites the steering MACs, asks the balancer where each packet goes
// next, and queues it for that destination's writer — recording the
// balancer and the queue pushes as child spans of the click.step span
// they run under. On mem workloads there is no mesh behind the graph
// and the terminal only collects the batch.
type traceTerminal struct {
	click.Base
	rec    *recorder
	self   int
	bal    *vlb.Balancer
	queues []*traceQueue // per next member; queues[self] is the sink's
	out    *pkt.Batch    // mem workloads: delivered packets
}

func (t *traceTerminal) InPorts() int  { return 1 }
func (t *traceTerminal) OutPorts() int { return 0 }

func (t *traceTerminal) Push(ctx *click.Context, port int, p *pkt.Packet) { pushOne(t, ctx, port, p) }

func (t *traceTerminal) PushBatch(_ *click.Context, _ int, b *pkt.Batch) {
	if b.Compact() == 0 {
		return
	}
	if t.queues == nil {
		for _, p := range b.Packets() {
			t.out.Add(p)
		}
		b.Reset()
		return
	}
	remote := false
	for _, p := range b.Packets() {
		p.Ether().SetSrc(pkt.NodeMAC(t.self))
		p.Ether().SetDst(pkt.NodeMAC(p.NextHop))
		remote = remote || p.NextHop != t.self
	}
	if remote {
		t.rec.begin("vlb.route")
		now := sim.Time(time.Now().UnixNano())
		for _, p := range b.Packets() {
			if p.NextHop != t.self {
				p.NextHop = t.bal.Route(now, p, p.NextHop).Next
			}
		}
		t.rec.end()
	}
	t.rec.begin("exec.txq")
	for _, p := range b.Packets() {
		q := t.queues[p.NextHop]
		q.mu.Lock()
		q.ring.Push(p)
		q.mu.Unlock()
	}
	t.rec.end()
	b.Reset()
}

// tracedNode is the serial stand-in for one rbrouter member.
type tracedNode struct {
	rec   *recorder
	pipe  *routebricks.Pipeline
	term  *traceTerminal
	shard *pkt.PoolShard
	in    *memInputs // frames (and churn destinations) to run
	next  int        // next frame of the set
	cycle int        // frames cycled through before wrapping
	dst   int        // next churn destination

	// Wire workloads only: the far socket plays generator and sink, the
	// near socket is the node's. Every queue's writer sends to the far
	// socket, so what the node transmits can be drained and counted.
	far, near *net.UDPConn
	farW      *netio.BatchWriter
	farR      *netio.BatchReader
	rx        *netio.BatchReader
	tx        *netio.BatchWriter
	rxb, txb  *pkt.Batch
	frames    []*pkt.Packet
}

func newTracedNode(wl *workload, in *memInputs, fib *routebricks.RouteAdmin) (*tracedNode, error) {
	n := &tracedNode{
		rec:   newRecorder(),
		shard: pkt.DefaultPool.Shard(2),
		in:    in,
		cycle: workset,
		rxb:   pkt.NewBatch(traceBatch),
		txb:   pkt.NewBatch(traceBatch),
	}
	n.term = &traceTerminal{rec: n.rec, out: pkt.NewBatch(traceBatch)}
	if wl.wire {
		n.cycle = len(in.fs.frames)
		n.term.bal = vlb.New(vlb.Config{
			Nodes: wl.members, Self: 0, LineRateBps: 1e9, LinkCapBps: 1e9, Flowlets: true, Seed: 1,
		})
		for i := 0; i < wl.members; i++ {
			n.term.queues = append(n.term.queues, &traceQueue{ring: exec.NewRing(4096)})
		}
		var err error
		if n.far, err = listenLoopback(); err != nil {
			return nil, err
		}
		if n.near, err = listenLoopback(); err != nil {
			n.far.Close()
			return nil, err
		}
		n.farW = netio.NewBatchWriter(n.far, netio.Config{})
		n.farR = netio.NewBatchReader(n.far, netio.Config{Shard: n.shard})
		n.rx = netio.NewBatchReader(n.near, netio.Config{Shard: n.shard})
		n.tx = netio.NewBatchWriter(n.near, netio.Config{})
	}
	drop := func() routebricks.Element { return &elements.Sink{Recycle: pkt.DefaultPool} }
	var err error
	// The same graph as rbrouter's embedded ingress program, with the
	// terminal where its vlb element sits.
	n.pipe, err = routebricks.Load(ipConfig, routebricks.Options{
		Cores: 1, KP: traceBatch, InputCap: 4096, FIB: fib,
		Prebound: func(int) map[string]routebricks.Element {
			return map[string]routebricks.Element{"badhdr": drop(), "badroute": drop(), "badttl": drop()}
		},
		Sink: func(int) routebricks.Element { return n.term },
	})
	if err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func listenLoopback() (*net.UDPConn, error) {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	c.SetReadBuffer(sockBuf)
	c.SetWriteBuffer(sockBuf)
	return c, nil
}

func (n *tracedNode) close() {
	if n.far != nil {
		n.farR.Release()
		n.rx.Release()
		n.far.Close()
		n.near.Close()
	}
}

// wireBatch moves one batch of frames generator → node → sink. Only the
// node's part is inside the "batch" span.
func (n *tracedNode) wireBatch() error {
	n.frames = n.frames[:0]
	for len(n.frames) < traceBatch {
		n.frames = append(n.frames, n.in.fs.frames[n.next].p)
		if n.next++; n.next == n.cycle {
			n.next = 0
		}
	}
	if _, err := n.farW.WriteBatch(n.frames, n.near.LocalAddr().(*net.UDPAddr)); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Second)
	n.near.SetReadDeadline(deadline)
	n.far.SetReadDeadline(deadline)
	farAddr := n.far.LocalAddr().(*net.UDPAddr)

	r := n.rec
	r.batch++
	r.begin("batch")
	for got := 0; got < traceBatch; {
		n.rxb.Reset()
		r.begin("netio.rx")
		k, err := n.rx.ReadBatch(n.rxb)
		r.end()
		if err != nil {
			r.end()
			return fmt.Errorf("traced node receive: %w", err)
		}
		got += k
		r.begin("steer.pushflow")
		for _, p := range n.rxb.Packets() {
			if !n.pipe.PushFlow(p) {
				n.shard.Put(p)
			}
		}
		r.end()
	}
	n.step()
	sent := 0
	for _, q := range n.term.queues {
		n.txb.Reset()
		r.begin("exec.txq")
		k := q.ring.PopBatchInto(n.txb, traceBatch)
		r.end()
		if k == 0 {
			continue
		}
		r.begin("netio.tx")
		_, err := n.tx.WriteBatch(n.txb.Packets(), farAddr)
		r.end()
		r.begin("pkt.pool")
		n.shard.PutBatch(n.txb)
		r.end()
		if err != nil {
			r.end()
			return fmt.Errorf("traced node send: %w", err)
		}
		sent += k
	}
	r.end()

	for got := 0; got < sent; {
		n.rxb.Reset()
		k, err := n.farR.ReadBatch(n.rxb)
		n.shard.PutBatch(n.rxb)
		if err != nil {
			return fmt.Errorf("traced sink receive: %w", err)
		}
		got += k
	}
	return nil
}

func (n *tracedNode) step() {
	n.rec.begin("click.step")
	n.pipe.Step()
	for n.pipe.Queued() > 0 {
		n.pipe.Step()
	}
	n.rec.end()
}

// memBatch is the same path with the wire taken out: buffers come from
// the pool instead of a receive, and go back to it instead of out.
// Filling the buffers with frame bytes is the generator's work, as the
// far-side send is in wireBatch, so the batch's root span is split in
// two around it.
func (n *tracedNode) memBatch() {
	r := n.rec
	r.batch++
	n.rxb.Reset()
	r.begin("batch")
	r.begin("pkt.pool")
	for i := 0; i < traceBatch; i++ {
		n.rxb.Add(n.shard.GetRaw(pkt.MaxSize))
	}
	r.end()
	r.end()
	for _, p := range n.rxb.Packets() {
		n.fill(p)
	}
	r.begin("batch")
	r.begin("steer.pushflow")
	for _, p := range n.rxb.Packets() {
		if !n.pipe.PushFlow(p) {
			n.shard.Put(p)
		}
	}
	r.end()
	n.step()
	r.begin("pkt.pool")
	n.shard.PutBatch(n.term.out)
	r.end()
	r.end()
}

// fill copies the next frame into p — the mem workloads cycle through
// their workset, the wire workloads through the whole set — on mem_churn
// with the next destination written in.
func (n *tracedNode) fill(p *pkt.Packet) {
	src := n.in.fs.frames[n.next].p.Data
	if n.next++; n.next == n.cycle {
		n.next = 0
	}
	p.Data = p.Data[:len(src)]
	copy(p.Data, src)
	if n.in.dsts != nil {
		ih := p.IPv4()
		binary.BigEndian.PutUint32(ih[16:20], n.in.dsts[n.dst])
		ih.UpdateChecksum()
		if n.dst++; n.dst == len(n.in.dsts) {
			n.dst = 0
		}
	}
}

// runTrace runs the traced loop for about d, alternating blocks with
// recording on and off, then the stand-alone element loops, and turns
// the spans into per-layer ns/packet.
func runTrace(env *runEnv, wl *workload, in *memInputs, fib *routebricks.RouteAdmin, d time.Duration, e map[string]float64) error {
	n, err := newTracedNode(wl, in, fib)
	if err != nil {
		return err
	}
	defer n.close()
	gets0, hits0, _ := n.shard.Stats()

	var onWall, offWall time.Duration
	var batches int
	for end := time.Now().Add(d); time.Now().Before(end); {
		for _, on := range []bool{true, false} {
			n.rec.on = on
			start := time.Now()
			for i := 0; i < traceBlock; i++ {
				if wl.wire {
					if err := n.wireBatch(); err != nil {
						return err
					}
				} else {
					n.memBatch()
				}
			}
			if on {
				onWall += time.Since(start)
				batches += traceBlock
			} else {
				offWall += time.Since(start)
			}
		}
	}
	elementLoops(n)
	self := selfTimes(n.rec.spans)
	pkts := float64(batches * traceBatch)
	var layers int64
	for _, name := range []string{"netio.rx", "steer.pushflow", "click.step", "vlb.route", "exec.txq", "netio.tx", "pkt.pool"} {
		layers += self[name]
	}
	wall := float64(layers + self["batch"])
	e["netio.rx_ns_per_pkt"] = float64(self["netio.rx"]) / pkts
	e["netio.tx_ns_per_pkt"] = float64(self["netio.tx"]) / pkts
	e["steer.pushflow_ns_per_pkt"] = float64(self["steer.pushflow"]) / pkts
	e["click.step_ns_per_pkt"] = float64(self["click.step"]) / pkts
	e["vlb.route_ns_per_pkt"] = float64(self["vlb.route"]) / pkts
	e["exec.txq_ns_per_pkt"] = float64(self["exec.txq"]) / pkts
	e["pkt.pool_ns_per_pkt"] = float64(self["pkt.pool"]) / pkts
	e["trace.budget_ns_per_pkt"] = wall / pkts
	e["trace.coverage"] = ratio(float64(layers), wall)
	e["trace.overhead_ratio"] = ratio(float64(onWall-offWall), float64(offWall))
	if !wl.wire {
		// The in-process loop recycles through free rings and never
		// touches the pool; the traced loop does, so the pool's hit rate
		// on these inputs is read here.
		gets1, hits1, _ := n.shard.Stats()
		e["pkt.pool_hit_ratio"] = ratio(float64(hits1-hits0), float64(gets1-gets0))
	}
	elPkts := float64(elementRounds * traceBatch)
	e["elements.checkip_ns_per_pkt"] = float64(self["elements.checkip"]) / elPkts
	e["elements.lpm_ns_per_pkt"] = float64(self["elements.lpm"]) / elPkts
	e["elements.decttl_ns_per_pkt"] = float64(self["elements.decttl"]) / elPkts
	return writeSpans(filepath.Join(env.outDir, "trace.json"), n.rec.spans[:min(len(n.rec.spans), maxSpansWritten)])
}

// elementLoops times direct PushBatch calls on the three elements of the
// forwarding path, each fed the survivors of the one before, over the
// workload's frames.
func elementLoops(n *tracedNode) {
	check, ttl := &elements.CheckIPHeader{}, &elements.DecIPTTL{}
	rt := n.pipe.Element(0, "rt").(*elements.LPMLookup)
	lookup := elements.NewLPMLookup(rt.Table)
	stage := [3]*pkt.Batch{pkt.NewBatch(traceBatch), pkt.NewBatch(traceBatch), pkt.NewBatch(traceBatch)}
	keep := func(into *pkt.Batch) click.BatchOutput {
		return func(_ *click.Context, b *pkt.Batch) {
			for _, p := range b.Packets() {
				into.Add(p)
			}
		}
	}
	drop := func(_ *click.Context, p *pkt.Packet) { n.shard.Put(p) }
	check.SetBatchOutput(0, keep(stage[1]))
	check.SetOutput(1, drop)
	lookup.SetBatchOutput(0, keep(stage[2]))
	lookup.SetOutput(1, drop)
	done := pkt.NewBatch(traceBatch)
	ttl.SetBatchOutput(0, keep(done))
	ttl.SetOutput(1, drop)

	r := n.rec
	r.on = true
	var ctx click.Context
	n.next, n.dst = 0, 0
	for i := 0; i < elementRounds; i++ {
		for k := 0; k < traceBatch; k++ {
			p := n.shard.GetRaw(pkt.MaxSize)
			n.fill(p)
			stage[0].Add(p)
		}
		r.begin("elements.checkip")
		check.PushBatch(&ctx, 0, stage[0])
		r.end()
		r.begin("elements.lpm")
		lookup.PushBatch(&ctx, 0, stage[1])
		r.end()
		r.begin("elements.decttl")
		ttl.PushBatch(&ctx, 0, stage[2])
		r.end()
		ctx.TakeCycles()
		n.shard.PutBatch(done)
		for _, b := range stage {
			b.Reset()
		}
	}
}
