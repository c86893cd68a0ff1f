// Package cluster assembles RouteBricks clusters: N server nodes (modeled
// by internal/hw), each running a click graph over multi-queue NICs
// (per-core exec.Ring descriptor queues, RSS-steered through the same
// static table, rss.Chain, the live pipeline uses), interconnected in a full mesh and
// switched with Direct VLB plus flowlet reordering avoidance
// (internal/vlb). RB4 — the paper's 4-node prototype (§6) — is the
// default configuration.
//
// The cluster runs as a discrete-event simulation on virtual time:
// packets really flow (real IPv4 headers, real DIR-24-8 lookups, real MAC
// rewriting, real per-queue rings), and time advances according to the
// calibrated hardware model — DMA transfers at 2.56 µs each, cores
// consuming calibrated cycles per batch, NIC-driven kn batching with its
// up-to-12.8 µs wait, and internal links with serialization delay. The
// §6.2 measurements (reordering fraction, per-packet latency) fall out of
// the same mechanisms the paper describes rather than being hard-coded.
//
// Per the paper's implementation (§6.1), a packet's IP header is
// processed only at its input node: the output node is encoded in the
// destination MAC, internal ports steer on it (one receive queue per
// output node), and transit/egress cores move packets between rings
// without touching headers. The cluster adds exactly two elements beyond
// the stock library — vlbIngress and vlbTransit — mirroring RB4's "only
// two new Click elements".
package cluster

import (
	"fmt"
	"net/netip"

	"routebricks/internal/hw"
	"routebricks/internal/lpm"
	"routebricks/internal/pkt"
	"routebricks/internal/sim"
	"routebricks/internal/stats"
	"routebricks/internal/vlb"
)

// Timing constants from §6.2 of the paper.
const (
	// DMATransfer is one DMA transfer (packet or descriptor) at the
	// measured 400 MHz engine speed: 2.56 µs for a 64 B-class transfer.
	DMATransfer = 2560 * sim.Nanosecond
	// RxDMA and TxDMA each cover a descriptor and a packet transfer.
	RxDMA = 2 * DMATransfer
	TxDMA = 2 * DMATransfer
	// LinkPropagation is the internal cable flight time.
	LinkPropagation = 300 * sim.Nanosecond
	// DefaultTxTimeout bounds how long a packet waits for its kn-batch;
	// the paper's estimate of the worst-case batch wait is 12.8 µs.
	DefaultTxTimeout = 13 * sim.Microsecond
	// txService is the NIC transmit engine's polling granularity.
	txService = 1 * sim.Microsecond
	// idleRepoll caps how often an idle core re-polls, a simulation
	// efficiency knob (real Click spins; only latency granularity at
	// idle is affected).
	idleRepoll = 1 * sim.Microsecond
	// maxLinkBacklog is how far ahead a link may be booked before the
	// transmit engine stops draining rings (backpressure).
	maxLinkBacklog = 40 * sim.Microsecond
	// defaultQueueSize matches the 512-descriptor rings common on the
	// paper-era Intel 10G parts.
	defaultQueueSize = 512
)

// Config parameterizes a cluster.
type Config struct {
	Nodes int
	Spec  hw.Spec

	KP int // packets per poll
	KN int // descriptors per NIC transaction

	QueueSize int // per-ring capacity (defaults to defaultQueueSize)

	// LineRateBps is the external port rate R (default 10 Gbps).
	LineRateBps float64
	// LinkBps is the internal mesh link rate (default 10 Gbps: RB4 uses
	// one 10G port per peer).
	LinkBps float64

	// Flowlets enables the reordering-avoidance extension (§6.1); the
	// ReorderTax CPU cost is charged whenever it is on.
	Flowlets bool
	// Delta is the flowlet timeout (default 100 ms).
	Delta sim.Time
	// FitCapBps is the per-path capacity the flowlet fit test uses;
	// defaults to LinkBps.
	FitCapBps float64

	// TxTimeout bounds the NIC batch wait (default 13 µs).
	TxTimeout sim.Time

	// ExtraRoutes pads the FIB beyond the per-node prefixes, stressing
	// the lookup as the paper does with 256K entries. Default 0 (tests);
	// experiments set it large.
	ExtraRoutes int

	Seed int64
}

// RB4Config is the paper's prototype: 4 Nehalem nodes, full mesh,
// Direct VLB with flowlets, tuned batching.
func RB4Config() Config {
	return Config{
		Nodes:       4,
		Spec:        hw.Nehalem(),
		KP:          32,
		KN:          16,
		LineRateBps: 10e9,
		LinkBps:     10e9,
		Flowlets:    true,
	}
}

// Cluster is a running cluster simulation.
type Cluster struct {
	cfg   Config
	eng   *sim.Engine
	table *lpm.LiveTable
	nodes []*node

	// Measurement.
	Meter        *stats.ReorderMeter
	Latency      *stats.Series // µs per delivered packet
	Hops         [4]uint64     // delivery count by VLB phase count (1..3)
	injected     uint64
	arrived      uint64 // accepted by ingress NIC
	ttlDrops     uint64
	failureDrops uint64
	flying       int // packets in DMA or on a link, not yet in any ring

	// DeliveredByInput counts deliveries per input node, for fairness
	// measurements (§3.1 guarantee 2).
	DeliveredByInput []uint64
}

// New builds a cluster and its FIB. Each node d owns 10.d.0.0/16; extra
// filler routes spread over 172.16/12 point at random nodes.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("cluster: need ≥2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Nodes > 256 {
		return nil, fmt.Errorf("cluster: node MAC steering supports ≤256 nodes, got %d", cfg.Nodes)
	}
	if cfg.KP < 1 {
		cfg.KP = 1
	}
	if cfg.KN < 1 {
		cfg.KN = 1
	}
	if cfg.LineRateBps == 0 {
		cfg.LineRateBps = 10e9
	}
	if cfg.LinkBps == 0 {
		cfg.LinkBps = 10e9
	}
	if cfg.Delta == 0 {
		cfg.Delta = vlb.DefaultDelta
	}
	if cfg.FitCapBps == 0 {
		cfg.FitCapBps = cfg.LinkBps
	}
	if cfg.TxTimeout == 0 {
		cfg.TxTimeout = DefaultTxTimeout
	}
	if cfg.QueueSize < 1 {
		cfg.QueueSize = defaultQueueSize
	}

	c := &Cluster{
		cfg:     cfg,
		eng:     sim.New(),
		Meter:   stats.NewReorderMeter(),
		Latency: &stats.Series{},
	}
	// The FIB is a live table seeded as one batched commit: node prefixes
	// plus filler routes land as generation 1, and experiment drivers can
	// churn routes mid-simulation through Table().
	routes := append(make([]lpm.Route, 0, cfg.Nodes+cfg.ExtraRoutes), SeedRoutes(cfg.Nodes)...)
	if cfg.ExtraRoutes > 0 {
		for i, r := range lpm.RandomTable(cfg.ExtraRoutes, cfg.Nodes, cfg.Seed+1, false) {
			// Keep filler routes out of the 10/8 block so node prefixes
			// stay authoritative.
			a := r.Prefix.Addr().As4()
			if a[0] == 10 {
				a[0] = 172
			}
			p := netip.PrefixFrom(netip.AddrFrom4(a), r.Prefix.Bits())
			routes = append(routes, lpm.Route{Prefix: p, NextHop: i % cfg.Nodes})
		}
	}
	var err error
	if c.table, err = lpm.NewLiveTable(routes...); err != nil {
		return nil, err
	}

	c.DeliveredByInput = make([]uint64, cfg.Nodes)
	for id := 0; id < cfg.Nodes; id++ {
		c.nodes = append(c.nodes, newNode(c, id))
	}
	for id, n := range c.nodes {
		n.start()
		_ = id
	}
	return c, nil
}

// Engine exposes the virtual clock for experiment drivers.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// splitFactor is how many receive queues each output node's traffic is
// spread over on every internal port. The paper's MAC trick dedicates one
// queue per output port; with more cores than cluster nodes the spare
// queue space is used to shard each output's egress work across
// cores/Nodes queues (the MAC carries flow-hash bits above the node ID),
// which is what keeps egress from concentrating on a few cores.
func (c *Cluster) splitFactor() int {
	s := c.cfg.Spec.Cores() / c.cfg.Nodes
	if s < 1 {
		s = 1
	}
	return s
}

// NodeAddr returns an address owned by node d (for building workloads).
func (c *Cluster) NodeAddr(d int, host uint16) netip.Addr {
	return NodeOwnedAddr(d, host)
}

// Inject presents packet p on node's external wire at virtual time at.
// The packet becomes visible to cores after the receive-side DMA.
func (c *Cluster) Inject(at sim.Time, nodeID int, p *pkt.Packet) {
	n := c.nodes[nodeID]
	c.injected++
	c.eng.Schedule(at, func() {
		p.Arrival = int64(c.eng.Now())
		p.InputPort = nodeID
		c.flying++
		c.eng.After(RxDMA, func() {
			c.flying--
			if n.failed {
				c.failureDrops++
				pkt.DefaultPool.Put(p)
				return
			}
			if n.receive(-1, p) {
				c.arrived++
			} else {
				pkt.DefaultPool.Put(p)
			}
		})
	})
}

// Run advances the simulation to the horizon.
func (c *Cluster) Run(horizon sim.Time) { c.eng.Run(horizon) }

// Drain runs until all queues and links empty (or maxExtra elapses).
func (c *Cluster) Drain(maxExtra sim.Time) {
	deadline := c.eng.Now() + maxExtra
	for c.eng.Now() < deadline {
		if c.inFlight() == 0 {
			return
		}
		c.eng.Run(c.eng.Now() + 100*sim.Microsecond)
	}
}

func (c *Cluster) inFlight() int {
	total := c.flying
	for _, n := range c.nodes {
		total += n.queued()
	}
	return total
}

// Totals reports (injected, delivered, rxDrops, txDrops, ttlDrops).
func (c *Cluster) Totals() (injected, delivered, rxDrops, txDrops, ttl uint64) {
	delivered = c.Meter.Packets()
	for _, n := range c.nodes {
		rxDrops += rejected(n.rxAll)
		txDrops += rejected(n.txAll)
	}
	return c.injected, delivered, rxDrops, txDrops, c.ttlDrops
}

// BalancerStats aggregates VLB decision counters across nodes.
func (c *Cluster) BalancerStats() (direct, sticky, spread, newFl, overflow uint64) {
	for _, n := range c.nodes {
		d, s, sp, nf, ov := n.bal.Stats()
		direct += d
		sticky += s
		spread += sp
		newFl += nf
		overflow += ov
	}
	return
}
