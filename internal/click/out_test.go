package click

import (
	"testing"

	"routebricks/internal/pkt"
)

// echo is batch-native: for every packet whose Paint is above zero it
// first emits a clone with Paint one lower on output 1, then forwards
// the batch on output 0. Wired so that output 1 cycles back through a
// per-packet element into echo, each clone re-enters that element's Out
// while the outer batch of one is still in echo's hands.
type echo struct{ Base }

func (e *echo) InPorts() int  { return 1 }
func (e *echo) OutPorts() int { return 2 }

func (e *echo) Push(ctx *Context, port int, p *pkt.Packet) { PushOne(e, ctx, port, p) }

func (e *echo) PushBatch(ctx *Context, _ int, b *pkt.Batch) {
	for _, p := range b.Packets() {
		if p != nil && p.Paint > 0 {
			q := p.Clone()
			q.Paint = p.Paint - 1
			e.Out(ctx, 1, q)
		}
	}
	e.OutBatch(ctx, 0, b)
}

// A cycle back into a per-packet element delivers every packet exactly
// once, innermost first: the batches of one that Out wraps packets in
// come from a stack on the Context, so a nested Out cannot empty the
// batch an outer one is still delivering.
func TestOutReentrantCycle(t *testing.T) {
	r := NewRouter()
	loop := &passthrough{} // per-packet
	e := &echo{}
	sink := &collector{}
	r.MustAdd("loop", loop)
	r.MustAdd("echo", e)
	r.MustAdd("sink", sink)
	r.MustConnect("loop", 0, "echo", 0)
	r.MustConnect("echo", 1, "loop", 0)
	r.MustConnect("echo", 0, "sink", 0)

	const depth = 4
	p := newPacket()
	p.Paint = depth
	ctx := &Context{}
	loop.Push(ctx, 0, p)

	if len(sink.got) != depth+1 {
		t.Fatalf("sink got %d packets, want %d", len(sink.got), depth+1)
	}
	for i, q := range sink.got {
		if q.Paint != byte(i) {
			t.Fatalf("delivery %d has Paint %d, want %d (innermost first)", i, q.Paint, i)
		}
	}
	if sink.got[depth] != p {
		t.Fatal("the original packet was not delivered last")
	}
	if ctx.depth != 0 {
		t.Fatalf("%d batches of one still held after the push", ctx.depth)
	}
}

// nopSink is a Push-only terminal that allocates nothing.
type nopSink struct{ n int }

func (s *nopSink) Push(*Context, int, *pkt.Packet) { s.n++ }

// batchSink is a batch-native terminal that allocates nothing.
type batchSink struct{ n int }

func (s *batchSink) Push(ctx *Context, port int, p *pkt.Packet) { PushOne(s, ctx, port, p) }
func (s *batchSink) PushBatch(_ *Context, _ int, b *pkt.Batch) {
	s.n += b.Len()
	b.Reset()
}

// Once the context is warm, sending one packet costs no allocation:
// Out into a per-packet element, Out into a batch-native one, and
// PushOne.
func TestSinglePacketZeroAlloc(t *testing.T) {
	p := newPacket()
	for _, tc := range []struct {
		name string
		dst  Element
	}{{"Out/per-packet", &nopSink{}}, {"Out/batch-native", &batchSink{}}} {
		r := NewRouter()
		up := &passthrough{}
		r.MustAdd("up", up)
		r.MustAdd("dst", tc.dst)
		r.MustConnect("up", 0, "dst", 0)
		ctx := &Context{}
		send := func() { up.Out(ctx, 0, p) }
		send()
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Errorf("%s: %v allocs per packet, want 0", tc.name, allocs)
		}
	}
	dst := &batchSink{}
	ctx := &Context{}
	push := func() { PushOne(dst, ctx, 0, p) }
	push()
	if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
		t.Errorf("PushOne: %v allocs per packet, want 0", allocs)
	}
	if dst.n != 102 {
		t.Errorf("PushOne delivered %d packets, want 102", dst.n)
	}
}
