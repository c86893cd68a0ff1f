package click

import (
	"testing"

	"routebricks/internal/pkt"
)

// batchPassthrough is a batch-native passthrough charging one cycle per
// batch (not per packet).
type batchPassthrough struct {
	Base
	batches int
}

func (e *batchPassthrough) InPorts() int  { return 1 }
func (e *batchPassthrough) OutPorts() int { return 1 }

func (e *batchPassthrough) Push(ctx *Context, _ int, p *pkt.Packet) {
	ctx.Charge(1)
	e.Out(ctx, 0, p)
}

func (e *batchPassthrough) PushBatch(ctx *Context, _ int, b *pkt.Batch) {
	ctx.Charge(1)
	e.batches++
	e.OutBatch(ctx, 0, b)
}

func makeBatch(n int) *pkt.Batch {
	b := pkt.NewBatch(n)
	for i := 0; i < n; i++ {
		p := newPacket()
		p.SeqNo = uint64(i)
		b.Add(p)
	}
	return b
}

// The automatic adapter: a per-packet element downstream of a batch
// dispatch must see the same packets, in the same order, as it would
// from per-packet pushes.
func TestBatchAdapterPreservesOrderAndCount(t *testing.T) {
	r := NewRouter()
	src := &batchPassthrough{}
	sink := &collector{} // per-packet only
	r.MustAdd("src", src)
	r.MustAdd("sink", sink)
	r.MustConnect("src", 0, "sink", 0)

	ctx := &Context{}
	b := makeBatch(8)
	src.PushBatch(ctx, 0, b)

	if len(sink.got) != 8 {
		t.Fatalf("sink got %d packets, want 8", len(sink.got))
	}
	for i, p := range sink.got {
		if p.SeqNo != uint64(i) {
			t.Fatalf("order broken at %d: SeqNo %d", i, p.SeqNo)
		}
		if sink.port[i] != 0 {
			t.Fatalf("packet %d delivered to port %d", i, sink.port[i])
		}
	}
	if b.Len() != 0 {
		t.Fatalf("batch not returned empty: len %d", b.Len())
	}
	if got := ctx.TakeCycles(); got != 1 {
		t.Fatalf("cycles = %g, want 1 (charged per batch)", got)
	}
}

// Native delivery: a batch-aware downstream receives the batch whole.
func TestBatchNativeDispatch(t *testing.T) {
	r := NewRouter()
	a := &batchPassthrough{}
	bEl := &batchPassthrough{}
	sink := &collector{}
	r.MustAdd("a", a)
	r.MustAdd("b", bEl)
	r.MustAdd("sink", sink)
	r.MustConnect("a", 0, "b", 0)
	r.MustConnect("b", 0, "sink", 0)

	ctx := &Context{}
	a.PushBatch(ctx, 0, makeBatch(5))
	if bEl.batches != 1 {
		t.Fatalf("downstream saw %d batches, want 1 native delivery", bEl.batches)
	}
	if len(sink.got) != 5 {
		t.Fatalf("sink got %d packets", len(sink.got))
	}
	// Two hops, one cycle per batch each.
	if got := ctx.TakeCycles(); got != 2 {
		t.Fatalf("cycles = %g, want 2", got)
	}
}

// A per-packet element pushing into a port that only has a batch
// binding must still deliver (momentary batch of one).
func TestSinglePacketIntoBatchOnlyPort(t *testing.T) {
	up := &passthrough{}
	down := &batchPassthrough{}
	sink := &collector{}
	up.SetBatchOutput(0, BatchDispatch(down, 0))
	down.SetOutput(0, func(ctx *Context, p *pkt.Packet) { sink.Push(ctx, 0, p) })

	p := newPacket()
	up.Push(&Context{}, 0, p)
	if len(sink.got) != 1 || sink.got[0] != p {
		t.Fatalf("packet not delivered through batch-only port")
	}
	if down.batches != 1 {
		t.Fatalf("batches = %d", down.batches)
	}
}

// A one-shot BatchDispatch adapts at the entry point the way Connect
// does mid-graph.
func TestPushBatchToAdapter(t *testing.T) {
	sink := &collector{}
	b := makeBatch(3)
	BatchDispatch(sink, 2)(&Context{}, b)
	if len(sink.got) != 3 {
		t.Fatalf("got %d packets", len(sink.got))
	}
	for _, port := range sink.port {
		if port != 2 {
			t.Fatalf("wrong input port %d", port)
		}
	}
	if b.Len() != 0 {
		t.Fatal("batch not emptied")
	}

	native := &batchPassthrough{}
	native.SetOutput(0, func(ctx *Context, p *pkt.Packet) { sink.Push(ctx, 0, p) })
	BatchDispatch(native, 0)(&Context{}, makeBatch(2))
	if native.batches != 1 {
		t.Fatalf("native path not taken: %d batches", native.batches)
	}
}

// Instrumented batch connections attribute per-batch charges and count
// every packet in the batch.
func TestInstrumentBatchConnections(t *testing.T) {
	r := NewRouter()
	a := &batchPassthrough{}
	bEl := &batchPassthrough{}
	sink := &collector{}
	r.MustAdd("a", a)
	r.MustAdd("b", bEl)
	r.MustAdd("sink", sink)
	r.MustConnect("a", 0, "b", 0)
	r.MustConnect("b", 0, "sink", 0)

	prof := NewProfiler()
	r.Instrument(prof)

	ctx := &Context{}
	f := ctx.BeginFrame()
	a.PushBatch(ctx, 0, makeBatch(4))
	ctx.EndFrame(f)

	var bStats, sinkStats *ElementStats
	for _, s := range prof.Stats() {
		s := s
		switch s.Name {
		case "b":
			bStats = &s
		case "sink":
			sinkStats = &s
		}
	}
	if bStats == nil || bStats.Packets != 4 {
		t.Fatalf("element b stats = %+v, want 4 packets", bStats)
	}
	if bStats.Cycles != 1 {
		t.Fatalf("element b own cycles = %g, want 1 (per batch)", bStats.Cycles)
	}
	if sinkStats == nil || sinkStats.Packets != 4 {
		t.Fatalf("sink stats = %+v, want 4 packets", sinkStats)
	}
}
