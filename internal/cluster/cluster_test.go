package cluster

import (
	"net/netip"
	"testing"

	"routebricks/internal/exec"
	"routebricks/internal/pkt"
	"routebricks/internal/sim"
	"routebricks/internal/trafficgen"
)

// runRB4 builds an RB4 cluster, applies a workload, runs to completion
// and drains.
func runRB4(t *testing.T, cfg Config, w Workload) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Apply(c)
	c.Run(w.Duration + sim.Millisecond)
	c.Drain(20 * sim.Millisecond)
	return c
}

func TestRB4DeliversEverything(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 1
	w := Workload{
		OfferedBpsPerNode: 1e9, // 1 Gbps/node: far below saturation
		Sizes:             trafficgen.Fixed(300),
		ExcludeSelf:       true,
		Duration:          20 * sim.Millisecond,
		Seed:              1,
	}
	c := runRB4(t, cfg, w)
	injected, delivered, rxd, txd, ttl := c.Totals()
	if injected == 0 {
		t.Fatal("no packets injected")
	}
	if delivered != injected {
		t.Fatalf("delivered %d of %d (rxDrops=%d txDrops=%d ttl=%d, inflight=%d)",
			delivered, injected, rxd, txd, ttl, c.inFlight())
	}
}

func TestRB4HopCounts(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 2
	w := Workload{
		OfferedBpsPerNode: 2e9,
		Sizes:             trafficgen.AbileneMix(),
		ExcludeSelf:       true,
		Duration:          20 * sim.Millisecond,
		Seed:              2,
	}
	c := runRB4(t, cfg, w)
	// Every packet visits 2 (direct) or 3 (load-balanced) nodes; none
	// should be hairpins (ExcludeSelf) and none should exceed 3.
	if c.Hops[0] != 0 || c.Hops[1] != 0 {
		t.Fatalf("impossible hop counts: %v", c.Hops)
	}
	if c.Hops[2] == 0 {
		t.Fatal("no direct deliveries despite a near-uniform matrix")
	}
	_, _, _, _, _ = c.Totals()
}

// Under a near-uniform matrix at moderate load, Direct VLB routes the
// vast majority of traffic directly (the "no processing overhead" regime
// of §3.2).
func TestRB4UniformMostlyDirect(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 3
	w := Workload{
		OfferedBpsPerNode: 2e9,
		Sizes:             trafficgen.Fixed(1500),
		ExcludeSelf:       true,
		Duration:          20 * sim.Millisecond,
		Seed:              3,
	}
	c := runRB4(t, cfg, w)
	direct := float64(c.Hops[2])
	total := float64(c.Hops[2] + c.Hops[3])
	if total == 0 {
		t.Fatal("nothing delivered")
	}
	if f := direct / total; f < 0.9 {
		t.Fatalf("direct fraction = %.3f, want ≥0.9 under uniform load", f)
	}
}

// Per-server latency: the paper estimates ~24 µs per server, 47.6-66.4 µs
// through 2-3 hops (§6.2). The simulation reproduces the same mechanisms
// (4 DMA transfers, batch wait, processing), so the mean must land in the
// paper's band.
func TestRB4LatencyBand(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 4
	w := Workload{
		// 1.5 Gbps/node of 64 B: comfortably below the ~3 Gbps/node RB4
		// saturation point, so queueing stays modest and the DMA + batch
		// mechanics dominate latency, as in the paper's estimate.
		OfferedBpsPerNode: 1.5e9,
		Sizes:             trafficgen.Fixed(64),
		ExcludeSelf:       true,
		Duration:          10 * sim.Millisecond,
		Seed:              4,
	}
	c := runRB4(t, cfg, w)
	mean := c.Latency.Mean()
	if mean < 20 || mean > 90 {
		t.Fatalf("mean latency = %.1f µs, want within the paper's 2-3 hop band (≈48-66 µs ±)", mean)
	}
	p99 := c.Latency.Quantile(0.99)
	if p99 > 200 {
		t.Fatalf("p99 latency = %.1f µs, absurdly high for an unloaded cluster", p99)
	}
}

// In-order delivery with flowlets on a quiet cluster: reordering must be
// (near) zero.
func TestRB4ReorderingQuietCluster(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 5
	w := Workload{
		OfferedBpsPerNode: 1e9,
		Sizes:             trafficgen.AbileneMix(),
		ExcludeSelf:       true,
		Duration:          20 * sim.Millisecond,
		Seed:              5,
	}
	c := runRB4(t, cfg, w)
	if f := c.Meter.Fraction(); f > 0.002 {
		t.Fatalf("reordering = %.4f%% on a quiet cluster", 100*f)
	}
}

// The §6.2 reordering experiment: the whole trace between one input and
// one output port at a rate exceeding any single path, with and without
// the flowlet extension. Flowlets must cut reordering by a large factor.
func TestRB4ReorderingFlowletsVsPlain(t *testing.T) {
	run := func(flowlets bool) float64 {
		cfg := RB4Config()
		cfg.Seed = 6
		cfg.Flowlets = flowlets
		// Pin the flowlet fit capacity near the per-path share of the
		// offered load so that most flowlets fit one path but the largest
		// occasionally overflow and fall back to per-packet balancing —
		// the §6.2 situation ("more traffic than could fit in any single
		// path"), which leaves a small nonzero reordering residue.
		cfg.FitCapBps = 3e9
		w := Workload{
			OfferedBpsPerNode: 8e9,
			Sizes:             trafficgen.AbileneMix(),
			InputNodes:        []int{0},
			OutputNodes:       []int{3},
			Duration:          25 * sim.Millisecond,
			Seed:              6,
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Apply(c)
		c.Run(w.Duration + sim.Millisecond)
		c.Drain(20 * sim.Millisecond)
		if c.Meter.Packets() == 0 {
			t.Fatal("nothing delivered")
		}
		return c.Meter.Fraction()
	}
	with := run(true)
	without := run(false)
	t.Logf("reordering: flowlets=%.4f%% plain=%.4f%%", 100*with, 100*without)
	if without == 0 {
		t.Fatal("plain Direct VLB produced no reordering; experiment not stressing paths")
	}
	if with >= without/3 {
		t.Fatalf("flowlets (%.4f%%) did not materially beat plain VLB (%.4f%%)",
			100*with, 100*without)
	}
}

// Conservation under overload: injected = delivered + drops + in-flight
// leftovers; nothing is created or duplicated.
func TestRB4ConservationUnderOverload(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 7
	cfg.QueueSize = 64
	w := Workload{
		OfferedBpsPerNode: 9.5e9, // near line rate at 64 B: overloads the CPUs
		Sizes:             trafficgen.Fixed(64),
		ExcludeSelf:       true,
		Duration:          3 * sim.Millisecond,
		Seed:              7,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Apply(c)
	c.Run(w.Duration + sim.Millisecond)
	c.Drain(50 * sim.Millisecond)
	injected, delivered, rxd, txd, ttl := c.Totals()
	accounted := delivered + rxd + txd + ttl + uint64(c.inFlight())
	if accounted != injected {
		t.Fatalf("conservation broken: injected=%d accounted=%d (delivered=%d rx=%d tx=%d ttl=%d inflight=%d)",
			injected, accounted, delivered, rxd, txd, ttl, c.inFlight())
	}
	if rxd+txd == 0 {
		t.Log("note: no drops under overload — queues may be absorbing; acceptable but unexpected")
	}
}

// TTL-expired packets are dropped at the ingress node and counted.
func TestRB4TTLExpiry(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 8
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := trafficgen.New(trafficgen.Config{
		Seed:     8,
		Sizes:    trafficgen.Fixed(64),
		DstAddrs: []netip.Addr{c.NodeAddr(2, 1), c.NodeAddr(3, 1)},
	})
	for i := 0; i < 100; i++ {
		p := src.Next()
		p.IPv4().SetTTL(1)
		p.IPv4().UpdateChecksum()
		c.Inject(sim.Time(i)*sim.Microsecond, 0, p)
	}
	c.Run(sim.Millisecond)
	c.Drain(10 * sim.Millisecond)
	injected, delivered, _, _, ttl := c.Totals()
	if ttl != injected {
		t.Fatalf("ttl drops = %d, want %d (delivered %d)", ttl, injected, delivered)
	}
}

// Determinism: identical seeds give identical measurements.
func TestRB4Determinism(t *testing.T) {
	run := func() (uint64, float64) {
		cfg := RB4Config()
		cfg.Seed = 9
		w := Workload{
			OfferedBpsPerNode: 3e9,
			Sizes:             trafficgen.AbileneMix(),
			ExcludeSelf:       true,
			Duration:          5 * sim.Millisecond,
			Seed:              9,
		}
		c := runRB4(t, cfg, w)
		return c.Meter.Packets(), c.Latency.Mean()
	}
	p1, l1 := run()
	p2, l2 := run()
	if p1 != p2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%d,%g) vs (%d,%g)", p1, l1, p2, l2)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1, Spec: RB4Config().Spec}); err == nil {
		t.Error("1-node cluster accepted")
	}
	if _, err := New(Config{Nodes: 300, Spec: RB4Config().Spec}); err == nil {
		t.Error("300-node cluster accepted (MAC steering limit)")
	}
}

func TestNodeAddrMapsToFIB(t *testing.T) {
	c, err := New(RB4Config())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		a := c.NodeAddr(d, 0x1234)
		b := a.As4()
		if b[0] != 10 || int(b[1]) != d {
			t.Fatalf("NodeAddr(%d) = %v", d, a)
		}
	}
}

// mkpkt builds a 64 B test packet of flow (10.0.0.1:sport → 10.0.0.2:80)
// tagged with sequence number sport.
func mkpkt(sport int) *pkt.Packet {
	p := pkt.New(64, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), uint16(sport), 80)
	p.SeqNo = uint64(sport)
	return p
}

// Every port gets one queue per core per direction, each sized to the
// 512-descriptor default when Config.QueueSize is unset.
func TestPortDefaults(t *testing.T) {
	cfg := RB4Config()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.nodes[0]
	cores := cfg.Spec.Cores()
	if len(n.extRX) != cores || len(n.extTX) != cores || len(n.peerRX[1]) != cores || len(n.peerTX[1]) != cores {
		t.Fatalf("queues per port = %d/%d ext, %d/%d peer; want %d", len(n.extRX), len(n.extTX), len(n.peerRX[1]), len(n.peerTX[1]), cores)
	}
	if n.peerRX[0] != nil || n.peerTX[0] != nil {
		t.Fatal("node has a port facing itself")
	}
	for _, r := range append(n.rxAll, n.txAll...) {
		if r.Cap() != defaultQueueSize {
			t.Fatalf("queue size = %d, want %d", r.Cap(), defaultQueueSize)
		}
	}
}

// MAC steering: an internal port's receive queue is the node ID encoded
// in the destination MAC, modulo the queue count.
func TestMACSteering(t *testing.T) {
	c, err := New(RB4Config())
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 16; node++ {
		p := mkpkt(node)
		p.Ether().SetDst(pkt.NodeMAC(node))
		if got, want := macQueue(p, 4), node%4; got != want {
			t.Errorf("node %d steered to queue %d, want %d", node, got, want)
		}
	}
	// receive lands the frame on the steered queue of the port facing
	// the sender.
	n := c.nodes[1]
	rx := n.peerRX[0]
	p := mkpkt(1)
	p.Ether().SetDst(pkt.NodeMAC(3))
	if !n.receive(0, p) {
		t.Fatal("receive rejected a frame on an empty port")
	}
	if q := rx[3%len(rx)]; q.Len() != 1 {
		t.Fatalf("queue %d holds %d frames, want 1", 3%len(rx), q.Len())
	}
}

// A full receive queue rejects the frame and the cluster counts it as a
// receive drop.
func TestDeliverCountsDrops(t *testing.T) {
	cfg := RB4Config()
	cfg.QueueSize = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.nodes[0]
	// One flow steers to one queue, so the third frame overflows it.
	for i := 0; i < 2; i++ {
		if !n.receive(-1, mkpkt(7)) {
			t.Fatalf("frame %d rejected", i)
		}
	}
	if n.receive(-1, mkpkt(7)) {
		t.Fatal("full queue accepted a frame")
	}
	if _, _, rxd, txd, _ := c.Totals(); rxd != 1 || txd != 0 {
		t.Fatalf("rx drops = %d, tx drops = %d; want 1, 0", rxd, txd)
	}
}

// txQueues builds a transmit engine over two 8-slot queues with a
// descriptor batch of kn — enough of the engine for drain.
func txQueues(kn int) *txEngine {
	return &txEngine{tx: []*exec.Ring{exec.NewRing(8), exec.NewRing(8)}, batch: pkt.NewBatch(kn)}
}

func TestDrainTXRoundRobin(t *testing.T) {
	e := txQueues(16)
	for i := 0; i < 4; i++ {
		e.tx[0].Push(mkpkt(i))
		e.tx[1].Push(mkpkt(10 + i))
	}
	if n := e.drain(); n != 8 {
		t.Fatalf("drained %d, want 8", n)
	}
	// Within each queue, order is preserved.
	last := map[bool]uint64{}
	for _, p := range e.batch.Packets() {
		q := p.SeqNo >= 10
		if prev, ok := last[q]; ok && p.SeqNo < prev {
			t.Fatalf("queue order broken: %d after %d", p.SeqNo, prev)
		}
		last[q] = p.SeqNo
	}
	// The cursor moved on, so the next drain starts at the other queue.
	e.tx[0].Push(mkpkt(4))
	e.tx[1].Push(mkpkt(14))
	if e.drain(); e.batch.At(0).SeqNo != 4 {
		t.Fatalf("second drain started at seq %d, want queue 0's 4", e.batch.At(0).SeqNo)
	}
}

func TestDrainTXPartial(t *testing.T) {
	e := txQueues(4)
	for i := 0; i < 6; i++ {
		e.tx[i%2].Push(mkpkt(i))
	}
	if n := e.drain(); n != 4 {
		t.Fatalf("drained %d, want 4", n)
	}
	if left := e.tx[0].Len() + e.tx[1].Len(); left != 2 {
		t.Fatalf("left %d, want 2", left)
	}
}
