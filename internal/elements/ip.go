package elements

import (
	"fmt"

	"routebricks/internal/click"
	"routebricks/internal/hw"
	"routebricks/internal/lpm"
	"routebricks/internal/pkt"
)

// Classifier dispatches packets by EtherType: output i carries packets
// matching Types[i]; everything else goes to the last output (len(Types)).
type Classifier struct {
	click.Base
	Types []uint16
}

// NewClassifier builds a classifier over the given EtherTypes.
func NewClassifier(types ...uint16) *Classifier { return &Classifier{Types: types} }

// InPorts reports 1.
func (c *Classifier) InPorts() int { return 1 }

// OutPorts reports one port per type plus the default.
func (c *Classifier) OutPorts() int { return len(c.Types) + 1 }

// Push dispatches by EtherType.
func (c *Classifier) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(c, ctx, port, p)
}

// match returns the output port for a packet's EtherType.
func (c *Classifier) match(p *pkt.Packet) int {
	et := p.Ether().EtherType()
	for i, t := range c.Types {
		if et == t {
			return i
		}
	}
	return len(c.Types)
}

// PushBatch dispatches a whole batch. Real traffic is overwhelmingly
// uniform at this point in a graph (one EtherType per link), so the
// batch is forwarded whole when every packet matches the same output;
// mixed batches fall back to per-packet scatter in slot order.
func (c *Classifier) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	n := b.Compact()
	if n == 0 {
		return
	}
	pkts := b.Packets()
	out := c.match(pkts[0])
	uniform := true
	for _, p := range pkts[1:] {
		if c.match(p) != out {
			uniform = false
			break
		}
	}
	if uniform {
		c.OutBatch(ctx, out, b)
		return
	}
	for i, p := range pkts {
		b.Drop(i)
		c.Out(ctx, c.match(p), p)
	}
	b.Reset()
}

// CheckIPHeader validates the IPv4 header (version, IHL, total length,
// checksum); valid packets exit output 0, invalid output 1. This is the
// first element of the paper's IP-routing application.
type CheckIPHeader struct {
	click.Base
	valid   uint64
	invalid uint64
}

// InPorts reports 1.
func (c *CheckIPHeader) InPorts() int { return 1 }

// OutPorts reports 2 (good, bad).
func (c *CheckIPHeader) OutPorts() int { return 2 }

// Push validates the header.
func (c *CheckIPHeader) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(c, ctx, port, p)
}

// headerOK performs the validation itself.
func (c *CheckIPHeader) headerOK(p *pkt.Packet) bool {
	if len(p.Data) < pkt.EtherHdrLen+pkt.IPv4HdrLen {
		return false
	}
	h := p.IPv4()
	return h.Version() == 4 &&
		h.IHL() == 5 &&
		int(h.TotalLength()) <= p.Len()-pkt.EtherHdrLen &&
		int(h.TotalLength()) >= pkt.IPv4HdrLen &&
		h.VerifyChecksum()
}

// PushBatch validates the batch in place: bad packets divert to output
// 1 one at a time (the rare path), survivors compact and continue to
// output 0 as one batch.
func (c *CheckIPHeader) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	for i, p := range b.Packets() {
		if p == nil {
			continue
		}
		if !c.headerOK(p) {
			c.invalid++
			c.Out(ctx, 1, b.Take(i))
			continue
		}
		c.valid++
	}
	if b.Compact() > 0 {
		c.OutBatch(ctx, 0, b)
	}
}

// Stats reports (valid, invalid) counts.
func (c *CheckIPHeader) Stats() (valid, invalid uint64) { return c.valid, c.invalid }

// DecIPTTL decrements the TTL with an RFC 1141 incremental checksum
// update; live packets exit output 0, expired ones output 1.
type DecIPTTL struct {
	click.Base
	expired uint64
}

// InPorts reports 1.
func (d *DecIPTTL) InPorts() int { return 1 }

// OutPorts reports 2 (live, expired).
func (d *DecIPTTL) OutPorts() int { return 2 }

// Push decrements the TTL.
func (d *DecIPTTL) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(d, ctx, port, p)
}

// PushBatch decrements TTLs across the batch; expired packets divert to
// output 1 individually, the rest continue as one batch.
func (d *DecIPTTL) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	for i, p := range b.Packets() {
		if p == nil {
			continue
		}
		if !p.IPv4().DecTTL() {
			d.expired++
			d.Out(ctx, 1, b.Take(i))
		}
	}
	if b.Compact() > 0 {
		d.OutBatch(ctx, 0, b)
	}
}

// Expired reports how many packets hit TTL 0.
func (d *DecIPTTL) Expired() uint64 { return d.expired }

// LPMLookup performs the destination-address longest-prefix-match and
// annotates the packet with the resulting next hop (Click's D-lookup
// element over a 256K-entry table, §5.1). Hits exit output 0 with
// p.NextHop set; misses exit output 1. The element charges the routing
// delta of the calibrated cost model.
//
// When the table is a live FIB (*lpm.LiveTable), the batch path pins the
// current snapshot once per batch — route churn costs forwarding one
// atomic load per batch, not one per packet, and a batch never straddles
// two FIB generations.
type LPMLookup struct {
	click.Base
	Table  lpm.Engine
	live   *lpm.LiveTable // non-nil iff Table is a live FIB
	misses uint64
}

// NewLPMLookup wraps a route table.
func NewLPMLookup(table lpm.Engine) *LPMLookup {
	l := &LPMLookup{Table: table}
	if live, ok := table.(*lpm.LiveTable); ok {
		l.live = live
	}
	return l
}

// InPorts reports 1.
func (l *LPMLookup) InPorts() int { return 1 }

// OutPorts reports 2 (hit, miss).
func (l *LPMLookup) OutPorts() int { return 2 }

// Push looks up the destination.
func (l *LPMLookup) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(l, ctx, port, p)
}

// PushBatch looks up every destination, charging the routing delta once
// for the whole batch. Misses divert to output 1 individually; hits
// continue as one batch with NextHop annotated.
func (l *LPMLookup) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	n := b.Compact()
	if n == 0 {
		return
	}
	ctx.Charge(hw.RouteExtraCycles() * float64(n))
	table := l.Table
	if l.live != nil {
		// Pin one complete FIB snapshot for the whole batch: a single
		// atomic load, and concurrent route churn can't split the batch
		// across generations.
		table = l.live.Load()
	}
	for i, p := range b.Packets() {
		hop := table.Lookup(p.IPv4().DstUint32())
		if hop == lpm.NoRoute {
			l.misses++
			l.Out(ctx, 1, b.Take(i))
			continue
		}
		p.NextHop = hop
	}
	if b.Compact() > 0 {
		l.OutBatch(ctx, 0, b)
	}
}

// Misses reports lookup failures.
func (l *LPMLookup) Misses() uint64 { return l.misses }

// HopSwitch fans packets out by their NextHop annotation: packet with
// NextHop h exits output h. Out-of-range hops are a configuration error
// and panic, because silently misrouting packets would corrupt every
// downstream measurement.
type HopSwitch struct {
	click.Base
	N int // number of outputs
}

// NewHopSwitch builds a switch with n outputs.
func NewHopSwitch(n int) *HopSwitch { return &HopSwitch{N: n} }

// InPorts reports 1.
func (h *HopSwitch) InPorts() int { return 1 }

// OutPorts reports N.
func (h *HopSwitch) OutPorts() int { return h.N }

// Push routes by annotation.
func (h *HopSwitch) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	if p.NextHop < 0 || p.NextHop >= h.N {
		panic(fmt.Sprintf("elements: HopSwitch(%d) got next hop %d", h.N, p.NextHop))
	}
	h.Out(ctx, p.NextHop, p)
}
