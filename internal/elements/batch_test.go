package elements

import (
	"net/netip"
	"testing"

	"routebricks/internal/click"
	"routebricks/internal/exec"
	"routebricks/internal/hw"
	"routebricks/internal/lpm"
	"routebricks/internal/pkt"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func makeBatch(t testing.TB, n int, dst string) *pkt.Batch {
	t.Helper()
	b := pkt.NewBatch(n)
	for i := 0; i < n; i++ {
		p := testPacket(64, dst)
		p.SeqNo = uint64(i)
		b.Add(p)
	}
	return b
}

// seqs extracts delivered SeqNos from a capture slot.
func seqs(ps []*pkt.Packet) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.SeqNo
	}
	return out
}

func TestCheckIPHeaderBatchSplitsBadPackets(t *testing.T) {
	check := &CheckIPHeader{}
	c := newCapture()
	wireOut(check, 0, c, 0)
	wireOut(check, 1, c, 1)

	b := makeBatch(t, 6, "10.0.0.2")
	// Corrupt packets 1 and 4 mid-batch.
	b.At(1).IPv4().SetChecksum(0xBEEF)
	b.At(4).Data[pkt.EtherHdrLen] = 0x65 // version 6
	check.PushBatch(&click.Context{}, 0, b)

	if got := seqs(c.ports[0]); len(got) != 4 ||
		got[0] != 0 || got[1] != 2 || got[2] != 3 || got[3] != 5 {
		t.Fatalf("good path = %v, want [0 2 3 5]", got)
	}
	if got := seqs(c.ports[1]); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("bad path = %v, want [1 4]", got)
	}
	valid, invalid := check.Stats()
	if valid != 4 || invalid != 2 {
		t.Fatalf("stats = (%d, %d)", valid, invalid)
	}
}

func TestDecIPTTLBatchDivertsExpired(t *testing.T) {
	ttl := &DecIPTTL{}
	c := newCapture()
	wireOut(ttl, 0, c, 0)
	wireOut(ttl, 1, c, 1)

	b := makeBatch(t, 4, "10.0.0.2")
	b.At(2).IPv4().SetTTL(1)
	ttl.PushBatch(&click.Context{}, 0, b)

	if got := seqs(c.ports[0]); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("live path = %v", got)
	}
	if len(c.ports[1]) != 1 || c.ports[1][0].SeqNo != 2 {
		t.Fatalf("expired path = %v", seqs(c.ports[1]))
	}
	if ttl.Expired() != 1 {
		t.Fatalf("expired = %d", ttl.Expired())
	}
	for _, p := range c.ports[0] {
		if p.IPv4().TTL() != 63 {
			t.Fatal("TTL not decremented on batch path")
		}
		if !p.IPv4().VerifyChecksum() {
			t.Fatal("checksum broken on batch path")
		}
	}
}

func TestLPMLookupBatchChargesPerBatch(t *testing.T) {
	table := lpm.NewDir248()
	if err := table.Insert(pfx("10.0.0.0/16"), 7); err != nil {
		t.Fatal(err)
	}
	table.Freeze()
	look := NewLPMLookup(table)
	c := newCapture()
	wireOut(look, 0, c, 0)
	wireOut(look, 1, c, 1)

	b := pkt.NewBatch(4)
	for i := 0; i < 3; i++ {
		p := testPacket(64, "10.0.0.2")
		p.SeqNo = uint64(i)
		b.Add(p)
	}
	miss := testPacket(64, "192.168.9.9")
	miss.SeqNo = 99
	b.Add(miss)

	ctx := &click.Context{}
	look.PushBatch(ctx, 0, b)

	if got := ctx.TakeCycles(); got != hw.RouteExtraCycles()*4 {
		t.Fatalf("cycles = %g, want one per-batch charge %g", got, hw.RouteExtraCycles()*4)
	}
	if len(c.ports[0]) != 3 {
		t.Fatalf("hits = %d", len(c.ports[0]))
	}
	for _, p := range c.ports[0] {
		if p.NextHop != 7 {
			t.Fatalf("NextHop = %d", p.NextHop)
		}
	}
	if len(c.ports[1]) != 1 || c.ports[1][0].SeqNo != 99 {
		t.Fatal("miss not diverted")
	}
	if look.Misses() != 1 {
		t.Fatalf("misses = %d", look.Misses())
	}
}

func TestClassifierBatchUniformAndMixed(t *testing.T) {
	cls := NewClassifier(pkt.EtherTypeIPv4, pkt.EtherTypeARP)
	c := newCapture()
	for i := 0; i < 3; i++ {
		wireOut(cls, i, c, i)
	}

	// Uniform batch: all IPv4 → forwarded whole to output 0, order kept.
	cls.PushBatch(&click.Context{}, 0, makeBatch(t, 5, "10.0.0.2"))
	if got := seqs(c.ports[0]); len(got) != 5 {
		t.Fatalf("uniform batch delivered %v", got)
	}

	// Mixed batch: scatter per packet, preserving order per output.
	b := makeBatch(t, 4, "10.0.0.2")
	b.At(1).Ether().SetEtherType(pkt.EtherTypeARP)
	b.At(3).Ether().SetEtherType(0x1234) // default output
	cls.PushBatch(&click.Context{}, 0, b)
	if len(c.ports[0]) != 7 { // 5 uniform + packets 0, 2
		t.Fatalf("ipv4 total = %d", len(c.ports[0]))
	}
	if len(c.ports[1]) != 1 || len(c.ports[2]) != 1 {
		t.Fatalf("scatter counts = %d/%d", len(c.ports[1]), len(c.ports[2]))
	}
}

func TestCounterBatch(t *testing.T) {
	cnt := &Counter{}
	c := newCapture()
	wireOut(cnt, 0, c, 0)
	cnt.PushBatch(&click.Context{}, 0, makeBatch(t, 8, "10.0.0.2"))
	if cnt.Packets() != 8 || cnt.Bytes() != 8*64 {
		t.Fatalf("counter = %d pkts %d bytes", cnt.Packets(), cnt.Bytes())
	}
	if len(c.ports[0]) != 8 {
		t.Fatalf("forwarded %d", len(c.ports[0]))
	}
}

func TestDiscardBatchRecycles(t *testing.T) {
	pool := pkt.NewPool(32)
	disc := &Discard{}
	disc.PushBatch(&click.Context{PoolShard: pool.Shard(0)}, 0, makeBatch(t, 5, "10.0.0.2"))
	if disc.Count() != 5 {
		t.Fatalf("count = %d", disc.Count())
	}
	if pool.FreeLen() != 5 {
		t.Fatalf("pool got %d packets back, want 5", pool.FreeLen())
	}
}

func TestToDeviceBatch(t *testing.T) {
	ring := exec.NewRing(8)
	dev := NewToDevice(ring, 16)
	ctx := &click.Context{}
	dev.PushBatch(ctx, 0, makeBatch(t, 6, "10.0.0.2"))
	if got := ctx.TakeCycles(); got != hw.NICBatchCycles*6/16 {
		t.Fatalf("cycles = %g, want per-batch %g", got, hw.NICBatchCycles*6/16)
	}
	sent, dropped := dev.Stats()
	if sent != 6 || dropped != 0 || ring.Len() != 6 {
		t.Fatalf("sent=%d dropped=%d ring=%d", sent, dropped, ring.Len())
	}
	// Order preserved through the ring.
	for i := 0; i < 6; i++ {
		if p := ring.Pop(); p.SeqNo != uint64(i) {
			t.Fatalf("ring order broken at %d: %d", i, p.SeqNo)
		}
	}

	// Overflow: drops come back to the context's pool shard.
	pool := pkt.NewPool(32)
	small := exec.NewRing(2)
	dev2 := NewToDevice(small, 16)
	ctx.PoolShard = pool.Shard(0)
	dev2.PushBatch(ctx, 0, makeBatch(t, 5, "10.0.0.2"))
	sent2, dropped2 := dev2.Stats()
	if sent2 != 2 || dropped2 != 3 {
		t.Fatalf("sent=%d dropped=%d", sent2, dropped2)
	}
	if pool.FreeLen() != 3 {
		t.Fatalf("pool reclaimed %d, want 3", pool.FreeLen())
	}
}

// The full IP forwarding pipeline, wired batch-native end to end,
// delivers the same packets in the same order as per-packet pushes.
func TestForwardingPipelineBatchEquivalence(t *testing.T) {
	table := lpm.NewDir248()
	if err := table.Insert(pfx("10.0.0.0/16"), 1); err != nil {
		t.Fatal(err)
	}
	table.Freeze()

	run := func(batch bool) []uint64 {
		ring := exec.NewRing(64)
		for i := 0; i < 40; i++ {
			p := testPacket(64, "10.0.0.2")
			p.SeqNo = uint64(i)
			ring.Push(p)
		}
		poll := NewPollDevice(ring, 16)
		check := &CheckIPHeader{}
		look := NewLPMLookup(table)
		ttl := &DecIPTTL{}
		sink := newCapture()
		bad := &Discard{}
		if batch {
			poll.SetBatchOutput(0, click.BatchDispatch(check, 0))
			check.SetBatchOutput(0, click.BatchDispatch(look, 0))
			look.SetBatchOutput(0, click.BatchDispatch(ttl, 0))
			ttl.SetBatchOutput(0, click.BatchDispatch(sink, 0))
		} else {
			poll.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { check.Push(ctx, 0, p) })
			check.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { look.Push(ctx, 0, p) })
			look.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { ttl.Push(ctx, 0, p) })
			ttl.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { sink.Push(ctx, 0, p) })
		}
		check.SetOutput(1, func(ctx *click.Context, p *pkt.Packet) { bad.Push(ctx, 0, p) })
		look.SetOutput(1, func(ctx *click.Context, p *pkt.Packet) { bad.Push(ctx, 0, p) })
		ttl.SetOutput(1, func(ctx *click.Context, p *pkt.Packet) { bad.Push(ctx, 0, p) })
		ctx := &click.Context{}
		for poll.Run(ctx) > 0 {
		}
		return seqs(sink.ports[0])
	}

	perPacket := run(false)
	batched := run(true)
	if len(perPacket) != 40 || len(batched) != 40 {
		t.Fatalf("delivered %d / %d, want 40 each", len(perPacket), len(batched))
	}
	for i := range perPacket {
		if perPacket[i] != batched[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, perPacket[i], batched[i])
		}
	}
}
