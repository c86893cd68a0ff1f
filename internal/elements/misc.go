package elements

import (
	"sync/atomic"

	"routebricks/internal/click"
	"routebricks/internal/pkt"
)

// Counter counts packets and bytes flowing through it, transparently.
type Counter struct {
	click.Base
	packets atomic.Uint64
	bytes   atomic.Uint64
}

// InPorts reports 1.
func (c *Counter) InPorts() int { return 1 }

// OutPorts reports 1.
func (c *Counter) OutPorts() int { return 1 }

// Push counts and forwards.
func (c *Counter) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(c, ctx, port, p)
}

// PushBatch counts the whole batch with two counter updates and
// forwards it untouched.
func (c *Counter) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	n := b.Compact()
	if n == 0 {
		return
	}
	var bytes uint64
	for _, p := range b.Packets() {
		bytes += uint64(p.Len())
	}
	c.packets.Add(uint64(n))
	c.bytes.Add(bytes)
	c.OutBatch(ctx, 0, b)
}

// Packets reports the packet count.
func (c *Counter) Packets() uint64 { return c.packets.Load() }

// Bytes reports the byte count.
func (c *Counter) Bytes() uint64 { return c.bytes.Load() }

// Reset zeroes the counters.
func (c *Counter) Reset() {
	c.packets.Store(0)
	c.bytes.Store(0)
}

// Discard drops everything, counting as it goes. It is the terminal
// owner of every packet it receives and recycles each through the
// running core's pool shard, so steady-state drops cost no allocation
// churn.
type Discard struct {
	count atomic.Uint64
}

// InPorts reports 1.
func (d *Discard) InPorts() int { return 1 }

// OutPorts reports 0.
func (d *Discard) OutPorts() int { return 0 }

// Push drops.
func (d *Discard) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(d, ctx, port, p)
}

// PushBatch drops and recycles the whole batch with one counter update.
func (d *Discard) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	d.count.Add(uint64(b.Compact()))
	ctx.RecycleBatch(b)
	b.Reset()
}

// Count reports dropped packets.
func (d *Discard) Count() uint64 { return d.count.Load() }

// Tee clones each packet to every output (deep copies beyond the first,
// which forwards the original).
type Tee struct {
	click.Base
	N int
}

// NewTee builds an n-way tee.
func NewTee(n int) *Tee { return &Tee{N: n} }

// InPorts reports 1.
func (t *Tee) InPorts() int { return 1 }

// OutPorts reports N.
func (t *Tee) OutPorts() int { return t.N }

// Push replicates: exactly N-1 pool-backed clones for outputs 1..N-1,
// with the original forwarded on output 0 — never a wasted copy. Clones
// are cut before the original is forwarded, because downstream of
// output 0 may rewrite the packet in place.
func (t *Tee) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	for i := 1; i < t.N; i++ {
		t.Out(ctx, i, p.Clone())
	}
	t.Out(ctx, 0, p)
}

// SetEtherDst rewrites the destination MAC — the RB4 output-node encoding
// step writes pkt.NodeMAC values through this.
type SetEtherDst struct {
	click.Base
	MAC pkt.MAC
}

// InPorts reports 1.
func (s *SetEtherDst) InPorts() int { return 1 }

// OutPorts reports 1.
func (s *SetEtherDst) OutPorts() int { return 1 }

// Push rewrites and forwards.
func (s *SetEtherDst) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	p.Ether().SetDst(s.MAC)
	s.Out(ctx, 0, p)
}

// Paint stamps the packet's Paint annotation (Click's Paint element).
type Paint struct {
	click.Base
	Color byte
}

// InPorts reports 1.
func (e *Paint) InPorts() int { return 1 }

// OutPorts reports 1.
func (e *Paint) OutPorts() int { return 1 }

// Push paints and forwards.
func (e *Paint) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	p.Paint = e.Color
	e.Out(ctx, 0, p)
}

// PaintSwitch routes by the Paint annotation, modulo its output count.
type PaintSwitch struct {
	click.Base
	N int
}

// InPorts reports 1.
func (e *PaintSwitch) InPorts() int { return 1 }

// OutPorts reports N.
func (e *PaintSwitch) OutPorts() int { return e.N }

// Push dispatches on paint.
func (e *PaintSwitch) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	e.Out(ctx, int(p.Paint)%e.N, p)
}

// Stamp records the virtual arrival time of packets entering the graph,
// used by the latency measurements.
type Stamp struct {
	click.Base
}

// InPorts reports 1.
func (s *Stamp) InPorts() int { return 1 }

// OutPorts reports 1.
func (s *Stamp) OutPorts() int { return 1 }

// Push stamps and forwards.
func (s *Stamp) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	p.Arrival = ctx.Now()
	s.Out(ctx, 0, p)
}
