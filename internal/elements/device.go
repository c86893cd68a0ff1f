// Package elements is the standard element library for the click
// framework: device access (PollDevice/ToDevice), IP processing
// (CheckIPHeader, DecIPTTL, LPMLookup), IPsec ESP encryption, and the
// plumbing elements (Classifier, Counter, Tee, Discard) that the paper's
// router configurations are assembled from. RB4 needed "only two new
// Click elements" beyond the stock library (§8); this package plays the
// role of that stock library, and internal/vlb provides the two new ones.
package elements

import (
	"fmt"
	"sync/atomic"

	"routebricks/internal/click"
	"routebricks/internal/exec"
	"routebricks/internal/hw"
	"routebricks/internal/pkt"
)

// PollDevice polls one NIC receive queue in batches of up to kp packets
// and pushes each packet to output 0 — Click's polling-mode device source
// (§4.1: "the CPUs poll for incoming packets rather than being
// interrupted"). It charges the application forwarding work plus the
// per-poll book-keeping, so a timed run reproduces the calibrated cost
// model at full batches.
type PollDevice struct {
	click.Base
	queue *exec.Ring
	kp    int
	batch *pkt.Batch

	// ChargeForward controls whether the element charges the minimal-
	// forwarding application cycles per packet (on by default). Graphs
	// that account application work elsewhere disable it.
	ChargeForward bool

	polls      uint64
	emptyPolls uint64
	packets    uint64
}

// NewPollDevice builds a poll source for queue with burst kp.
func NewPollDevice(queue *exec.Ring, kp int) *PollDevice {
	if kp < 1 {
		kp = 1
	}
	return &PollDevice{queue: queue, kp: kp, batch: pkt.NewBatch(kp), ChargeForward: true}
}

// InPorts reports 0: PollDevice is a source.
func (d *PollDevice) InPorts() int { return 0 }

// OutPorts reports 1.
func (d *PollDevice) OutPorts() int { return 1 }

// Push panics: sources have no inputs.
func (d *PollDevice) Push(*click.Context, int, *pkt.Packet) {
	panic("elements: PollDevice has no input ports")
}

// Run polls once: up to kp packets are pulled as one batch and pushed
// downstream in a single dispatch. It implements click.Task.
func (d *PollDevice) Run(ctx *click.Context) int {
	d.batch.Reset()
	n := d.queue.PopBatchInto(d.batch, d.batch.Cap())
	d.polls++
	if n == 0 {
		d.emptyPolls++
		ctx.Charge(hw.EmptyPollCycles)
		return 0
	}
	// Poll book-keeping is per-packet work that bulk descriptor
	// operations amortize by the configured burst: kp=1 pays the full
	// CPoll per packet (Table 1 row 1), kp=32 a 32nd of it. A partial
	// batch pays proportionally to what it actually moved.
	ctx.Charge(hw.PollCycles * float64(n) / float64(d.kp))
	d.packets += uint64(n)
	if d.ChargeForward {
		for _, p := range d.batch.Packets() {
			ctx.Charge(hw.ForwardCycles(p.Len()))
		}
	}
	d.OutBatch(ctx, 0, d.batch)
	return n
}

// Stats reports (polls, emptyPolls, packets).
func (d *PollDevice) Stats() (polls, empty, packets uint64) {
	return d.polls, d.emptyPolls, d.packets
}

// ToDevice pushes packets into one NIC transmit queue and charges the
// amortized per-transaction descriptor cost. Packets that do not fit are
// dropped, counted (the ring's Rejected counter also advances) and
// recycled through the running core's pool shard: the element is their
// last owner.
type ToDevice struct {
	queue *exec.Ring
	kn    int

	sent    uint64
	dropped uint64
}

// NewToDevice builds a transmit sink for queue with NIC batching kn.
func NewToDevice(queue *exec.Ring, kn int) *ToDevice {
	if kn < 1 {
		kn = 1
	}
	return &ToDevice{queue: queue, kn: kn}
}

// InPorts reports 1.
func (d *ToDevice) InPorts() int { return 1 }

// OutPorts reports 0: ToDevice is a sink.
func (d *ToDevice) OutPorts() int { return 0 }

// Push enqueues the packet for transmission.
func (d *ToDevice) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(d, ctx, port, p)
}

// PushBatch enqueues a whole batch with one ring transaction, charging
// the amortized descriptor cost once for the batch instead of once per
// packet. Overflowing packets come back compacted in b and are
// recycled; the batch is returned empty.
func (d *ToDevice) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	n := b.Compact()
	if n == 0 {
		return
	}
	ctx.Charge(hw.NICBatchCycles * float64(n) / float64(d.kn))
	accepted := d.queue.PushBatch(b)
	d.sent += uint64(accepted)
	d.dropped += uint64(n - accepted)
	ctx.RecycleBatch(b)
	b.Reset()
}

// Stats reports (sent, dropped).
func (d *ToDevice) Stats() (sent, dropped uint64) { return d.sent, d.dropped }

// Sink terminates a graph and hands each packet to a callback; test
// harnesses and measurement points use it. The callback may be nil, in
// which case Sink just counts. Safe for concurrent pushes.
type Sink struct {
	Fn func(ctx *click.Context, p *pkt.Packet)
	// Recycle, when non-nil, makes the sink the owner of what it
	// consumes: after Fn has seen a packet, it goes back through
	// ctx.Recycle, the running core's shard of pkt.DefaultPool (the one
	// pool the data path draws from; set Recycle to it). Leave it nil
	// when Fn keeps packets.
	Recycle *pkt.Pool

	count atomic.Uint64
	bytes atomic.Uint64
}

// InPorts reports 1.
func (s *Sink) InPorts() int { return 1 }

// OutPorts reports 0.
func (s *Sink) OutPorts() int { return 0 }

// Push consumes the packet.
func (s *Sink) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	s.count.Add(1)
	s.bytes.Add(uint64(p.Len()))
	if s.Fn != nil {
		s.Fn(ctx, p)
	}
	if s.Recycle != nil {
		ctx.Recycle(p)
	}
}

// Count reports packets consumed.
func (s *Sink) Count() uint64 { return s.count.Load() }

// Bytes reports bytes consumed.
func (s *Sink) Bytes() uint64 { return s.bytes.Load() }

// String describes the sink.
func (s *Sink) String() string {
	return fmt.Sprintf("sink{%d pkts, %d bytes}", s.Count(), s.Bytes())
}
