package elements

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"testing/quick"

	"routebricks/internal/click"
	"routebricks/internal/exec"
	"routebricks/internal/hw"
	"routebricks/internal/ipsec"
	"routebricks/internal/lpm"
	"routebricks/internal/pkt"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func testPacket(size int, dst string) *pkt.Packet {
	return pkt.New(size, addr("10.0.0.1"), addr(dst), 1000, 2000)
}

// capture is a terminal element recording packets per input port.
type capture struct {
	ports map[int][]*pkt.Packet
}

func newCapture() *capture { return &capture{ports: map[int][]*pkt.Packet{}} }

func (c *capture) Push(_ *click.Context, port int, p *pkt.Packet) {
	c.ports[port] = append(c.ports[port], p)
}

// wire connects el's output port to a fresh capture slot and returns the
// capture. Used to test elements in isolation without a Router.
func wireOut(el interface{ SetOutput(int, click.Output) }, port int, c *capture, slot int) {
	el.SetOutput(port, func(ctx *click.Context, p *pkt.Packet) {
		c.ports[slot] = append(c.ports[slot], p)
	})
}

func TestPollDeviceBatching(t *testing.T) {
	ring := exec.NewRing(64)
	for i := 0; i < 10; i++ {
		p := testPacket(64, "10.0.0.2")
		p.SeqNo = uint64(i)
		ring.Push(p)
	}
	d := NewPollDevice(ring, 4)
	c := newCapture()
	wireOut(d, 0, c, 0)

	ctx := &click.Context{}
	if n := d.Run(ctx); n != 4 {
		t.Fatalf("first poll = %d, want 4", n)
	}
	// Cost: a full kp=4 batch pays the whole poll cost + per-packet work.
	want := hw.PollCycles + 4*hw.ForwardCycles(64)
	if got := ctx.TakeCycles(); got != want {
		t.Fatalf("cycles = %g, want %g", got, want)
	}
	d.Run(ctx)
	d.Run(ctx)
	if len(c.ports[0]) != 10 {
		t.Fatalf("delivered %d, want 10", len(c.ports[0]))
	}
	for i, p := range c.ports[0] {
		if p.SeqNo != uint64(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
	// Empty poll charges only the empty-poll cost.
	ctx.TakeCycles()
	if n := d.Run(ctx); n != 0 {
		t.Fatalf("empty poll returned %d", n)
	}
	if got := ctx.TakeCycles(); got != hw.EmptyPollCycles {
		t.Fatalf("empty poll cycles = %g", got)
	}
	polls, empty, packets := d.Stats()
	if polls != 4 || empty != 1 || packets != 10 {
		t.Fatalf("stats = %d/%d/%d", polls, empty, packets)
	}
}

func TestToDeviceChargesAndDrops(t *testing.T) {
	ring := exec.NewRing(2)
	d := NewToDevice(ring, 16)
	ctx := &click.Context{}
	for i := 0; i < 3; i++ {
		d.Push(ctx, 0, testPacket(64, "10.0.0.2"))
	}
	sent, dropped := d.Stats()
	if sent != 2 || dropped != 1 {
		t.Fatalf("sent/dropped = %d/%d", sent, dropped)
	}
	want := 3 * hw.NICBatchCycles / 16
	if got := ctx.TakeCycles(); got != want {
		t.Fatalf("cycles = %g, want %g", got, want)
	}
}

func TestClassifier(t *testing.T) {
	cl := NewClassifier(pkt.EtherTypeIPv4, pkt.EtherTypeVLB)
	c := newCapture()
	wireOut(cl, 0, c, 0)
	wireOut(cl, 1, c, 1)
	wireOut(cl, 2, c, 2)
	ctx := &click.Context{}

	p1 := testPacket(64, "10.0.0.2")
	cl.Push(ctx, 0, p1)
	p2 := testPacket(64, "10.0.0.2")
	p2.Ether().SetEtherType(pkt.EtherTypeVLB)
	cl.Push(ctx, 0, p2)
	p3 := testPacket(64, "10.0.0.2")
	p3.Ether().SetEtherType(pkt.EtherTypeARP)
	cl.Push(ctx, 0, p3)

	if len(c.ports[0]) != 1 || len(c.ports[1]) != 1 || len(c.ports[2]) != 1 {
		t.Fatalf("classifier split = %d/%d/%d", len(c.ports[0]), len(c.ports[1]), len(c.ports[2]))
	}
	if cl.OutPorts() != 3 {
		t.Fatalf("OutPorts = %d", cl.OutPorts())
	}
}

func TestCheckIPHeader(t *testing.T) {
	ch := &CheckIPHeader{}
	c := newCapture()
	wireOut(ch, 0, c, 0)
	wireOut(ch, 1, c, 1)
	ctx := &click.Context{}

	good := testPacket(64, "10.0.0.2")
	ch.Push(ctx, 0, good)

	badSum := testPacket(64, "10.0.0.2")
	badSum.IPv4().SetChecksum(badSum.IPv4().Checksum() ^ 0xFFFF)
	ch.Push(ctx, 0, badSum)

	badVer := testPacket(64, "10.0.0.2")
	badVer.Data[pkt.EtherHdrLen] = 0x65 // version 6
	ch.Push(ctx, 0, badVer)

	badLen := testPacket(64, "10.0.0.2")
	badLen.IPv4().SetTotalLength(2000) // longer than the frame
	badLen.IPv4().UpdateChecksum()
	ch.Push(ctx, 0, badLen)

	runt := &pkt.Packet{Data: make([]byte, 20)}
	ch.Push(ctx, 0, runt)

	if len(c.ports[0]) != 1 {
		t.Fatalf("valid = %d, want 1", len(c.ports[0]))
	}
	if len(c.ports[1]) != 4 {
		t.Fatalf("invalid = %d, want 4", len(c.ports[1]))
	}
	v, iv := ch.Stats()
	if v != 1 || iv != 4 {
		t.Fatalf("stats = %d/%d", v, iv)
	}
}

func TestDecIPTTL(t *testing.T) {
	d := &DecIPTTL{}
	c := newCapture()
	wireOut(d, 0, c, 0)
	wireOut(d, 1, c, 1)
	ctx := &click.Context{}

	p := testPacket(64, "10.0.0.2")
	p.IPv4().SetTTL(64)
	p.IPv4().UpdateChecksum()
	d.Push(ctx, 0, p)
	if p.IPv4().TTL() != 63 || !p.IPv4().VerifyChecksum() {
		t.Fatal("TTL decrement or checksum update broken")
	}

	dead := testPacket(64, "10.0.0.2")
	dead.IPv4().SetTTL(1)
	dead.IPv4().UpdateChecksum()
	d.Push(ctx, 0, dead)

	if len(c.ports[0]) != 1 || len(c.ports[1]) != 1 || d.Expired() != 1 {
		t.Fatalf("live/expired = %d/%d", len(c.ports[0]), len(c.ports[1]))
	}
}

func TestLPMLookupAnnotates(t *testing.T) {
	table := lpm.NewDir248()
	if err := table.Insert(netip.MustParsePrefix("10.1.0.0/16"), 3); err != nil {
		t.Fatal(err)
	}
	table.Freeze()
	l := NewLPMLookup(table)
	c := newCapture()
	wireOut(l, 0, c, 0)
	wireOut(l, 1, c, 1)
	ctx := &click.Context{}

	hit := testPacket(64, "10.1.2.3")
	l.Push(ctx, 0, hit)
	if hit.NextHop != 3 {
		t.Fatalf("NextHop = %d, want 3", hit.NextHop)
	}
	miss := testPacket(64, "192.168.1.1")
	l.Push(ctx, 0, miss)
	if len(c.ports[0]) != 1 || len(c.ports[1]) != 1 || l.Misses() != 1 {
		t.Fatalf("hit/miss = %d/%d", len(c.ports[0]), len(c.ports[1]))
	}
	if got := ctx.TakeCycles(); got != 2*hw.RouteExtraCycles() {
		t.Fatalf("cycles = %g", got)
	}
}

func TestHopSwitch(t *testing.T) {
	h := NewHopSwitch(4)
	c := newCapture()
	for i := 0; i < 4; i++ {
		wireOut(h, i, c, i)
	}
	ctx := &click.Context{}
	for hop := 0; hop < 4; hop++ {
		p := testPacket(64, "10.0.0.2")
		p.NextHop = hop
		h.Push(ctx, 0, p)
	}
	for i := 0; i < 4; i++ {
		if len(c.ports[i]) != 1 {
			t.Fatalf("port %d got %d", i, len(c.ports[i]))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range hop did not panic")
		}
	}()
	bad := testPacket(64, "10.0.0.2")
	bad.NextHop = 9
	h.Push(ctx, 0, bad)
}

func TestESPRoundTripThroughElements(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	tunA, _ := ipsec.NewTunnel(9, key)
	tunB, _ := ipsec.NewTunnel(9, key)
	enc := NewESPEncap(tunA, addr("192.0.2.1"), addr("192.0.2.2"))
	dec := NewESPDecap(tunB)
	c := newCapture()
	enc.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { dec.Push(ctx, 0, p) })
	wireOut(dec, 0, c, 0)
	wireOut(dec, 1, c, 1)

	ctx := &click.Context{}
	orig := testPacket(256, "10.9.9.9")
	origCopy := orig.Clone()
	enc.Push(ctx, 0, orig)

	if len(c.ports[0]) != 1 {
		t.Fatalf("decap delivered %d packets (errors=%d)", len(c.ports[0]), dec.Errors())
	}
	got := c.ports[0][0]
	if got.Len() != origCopy.Len() {
		t.Fatalf("inner length = %d, want %d", got.Len(), origCopy.Len())
	}
	for i := pkt.EtherHdrLen; i < got.Len(); i++ {
		if got.Data[i] != origCopy.Data[i] {
			t.Fatalf("inner packet corrupted at byte %d", i)
		}
	}
	if ctx.TakeCycles() <= 0 {
		t.Fatal("no cycles charged for crypto")
	}
}

func TestESPEncapProducesValidOuterHeader(t *testing.T) {
	tun, _ := ipsec.NewTunnel(1, make([]byte, 16))
	enc := NewESPEncap(tun, addr("192.0.2.1"), addr("192.0.2.2"))
	c := newCapture()
	wireOut(enc, 0, c, 0)
	enc.Push(&click.Context{}, 0, testPacket(128, "10.0.0.5"))
	out := c.ports[0][0]
	h := out.IPv4()
	if h.Protocol() != pkt.ProtoESP || !h.VerifyChecksum() {
		t.Fatal("outer header invalid")
	}
	if h.Dst() != addr("192.0.2.2") {
		t.Fatalf("outer dst = %v", h.Dst())
	}
	if int(h.TotalLength()) != out.Len()-pkt.EtherHdrLen {
		t.Fatalf("outer length field = %d, frame %d", h.TotalLength(), out.Len())
	}
}

// TestESPEncapZeroAlloc checks that sealing allocates nothing once the
// pool is warm: the ESP body is written straight into the pool packet.
func TestESPEncapZeroAlloc(t *testing.T) {
	tun, _ := ipsec.NewTunnel(1, make([]byte, 16))
	enc := NewESPEncap(tun, addr("192.0.2.1"), addr("192.0.2.2"))
	enc.SetOutput(0, func(_ *click.Context, p *pkt.Packet) { pkt.DefaultPool.Put(p) })
	tmpl := testPacket(256, "10.0.0.5")
	ctx := &click.Context{}
	push := func() {
		p := pkt.DefaultPool.Get(tmpl.Len())
		copy(p.Data, tmpl.Data)
		enc.Push(ctx, 0, p)
	}
	push()
	if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
		t.Fatalf("ESPEncap.Push: %v allocs per packet, want 0", allocs)
	}
}

// TestESPEncapOversizeKeepsSequence checks that an oversize packet is
// diverted unsealed: it consumes no sequence number.
func TestESPEncapOversizeKeepsSequence(t *testing.T) {
	tun, _ := ipsec.NewTunnel(1, make([]byte, 16))
	enc := NewESPEncap(tun, addr("192.0.2.1"), addr("192.0.2.2"))
	c := newCapture()
	wireOut(enc, 0, c, 0)
	wireOut(enc, 1, c, 1)
	ctx := &click.Context{}
	big := testPacket(1600, "10.0.0.5")
	enc.Push(ctx, 0, big)
	if enc.Oversize() != 1 || len(c.ports[1]) != 1 || c.ports[1][0] != big {
		t.Fatalf("oversize packet not diverted unchanged: oversize=%d port1=%d", enc.Oversize(), len(c.ports[1]))
	}
	enc.Push(ctx, 0, testPacket(128, "10.0.0.5"))
	esp := c.ports[0][0].Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:]
	if seq := binary.BigEndian.Uint32(esp[4:8]); seq != 1 {
		t.Fatalf("first sealed packet carries sequence %d, want 1", seq)
	}
}

func TestESPDecapRejectsGarbage(t *testing.T) {
	tun, _ := ipsec.NewTunnel(1, make([]byte, 16))
	dec := NewESPDecap(tun)
	c := newCapture()
	wireOut(dec, 0, c, 0)
	wireOut(dec, 1, c, 1)
	ctx := &click.Context{}
	notESP := testPacket(64, "10.0.0.2")
	dec.Push(ctx, 0, notESP)
	if len(c.ports[1]) != 1 || dec.Errors() != 1 {
		t.Fatal("non-ESP packet not diverted")
	}
}

func TestCounterAndDiscard(t *testing.T) {
	cnt := &Counter{}
	disc := &Discard{}
	cnt.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { disc.Push(ctx, 0, p) })
	ctx := &click.Context{}
	for i := 0; i < 5; i++ {
		cnt.Push(ctx, 0, testPacket(100, "10.0.0.2"))
	}
	if cnt.Packets() != 5 || cnt.Bytes() != 500 {
		t.Fatalf("counter = %d/%d", cnt.Packets(), cnt.Bytes())
	}
	if disc.Count() != 5 {
		t.Fatalf("discard = %d", disc.Count())
	}
	cnt.Reset()
	if cnt.Packets() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestTeeClones(t *testing.T) {
	tee := NewTee(3)
	c := newCapture()
	for i := 0; i < 3; i++ {
		wireOut(tee, i, c, i)
	}
	p := testPacket(64, "10.0.0.2")
	tee.Push(&click.Context{}, 0, p)
	if len(c.ports[0]) != 1 || len(c.ports[1]) != 1 || len(c.ports[2]) != 1 {
		t.Fatal("tee did not replicate")
	}
	if c.ports[0][0] != p {
		t.Fatal("output 0 must carry the original")
	}
	if c.ports[1][0] == p || c.ports[2][0] == p {
		t.Fatal("outputs 1+ must carry clones")
	}
	c.ports[1][0].Data[20] ^= 0xFF
	if p.Data[20] == c.ports[1][0].Data[20] {
		t.Fatal("clone shares storage with original")
	}
}

func TestPaintAndSwitch(t *testing.T) {
	paint := &Paint{Color: 2}
	sw := &PaintSwitch{N: 3}
	c := newCapture()
	paint.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { sw.Push(ctx, 0, p) })
	for i := 0; i < 3; i++ {
		wireOut(sw, i, c, i)
	}
	paint.Push(&click.Context{}, 0, testPacket(64, "10.0.0.2"))
	if len(c.ports[2]) != 1 {
		t.Fatal("paint switch misrouted")
	}
}

func TestSetEtherDstAndStamp(t *testing.T) {
	set := &SetEtherDst{MAC: pkt.NodeMAC(7)}
	st := &Stamp{}
	c := newCapture()
	set.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { st.Push(ctx, 0, p) })
	wireOut(st, 0, c, 0)
	ctx := &click.Context{NowNS: func() int64 { return 1234 }}
	set.Push(ctx, 0, testPacket(64, "10.0.0.2"))
	got := c.ports[0][0]
	if got.Ether().Dst() != pkt.NodeMAC(7) {
		t.Fatal("MAC not rewritten")
	}
	if got.Arrival != 1234 {
		t.Fatalf("Arrival = %d", got.Arrival)
	}
}

// Property: a full IP-router pipeline (check → lookup → ttl → hop switch)
// conserves packets: every valid input exits exactly one output.
func TestPropertyPipelineConservation(t *testing.T) {
	table := lpm.NewDir248()
	if err := lpm.Build(table, lpm.RandomTable(500, 4, 11, true)); err != nil {
		t.Fatal(err)
	}
	table.Freeze()
	check := &CheckIPHeader{}
	look := NewLPMLookup(table)
	ttl := &DecIPTTL{}
	hops := NewHopSwitch(4)
	c := newCapture()
	check.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { look.Push(ctx, 0, p) })
	wireOut(check, 1, c, 100)
	look.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { ttl.Push(ctx, 0, p) })
	wireOut(look, 1, c, 101)
	ttl.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { hops.Push(ctx, 0, p) })
	wireOut(ttl, 1, c, 102)
	for i := 0; i < 4; i++ {
		wireOut(hops, i, c, i)
	}

	f := func(dsts []uint32, ttlSeed uint8) bool {
		before := 0
		for _, n := range c.ports {
			before += len(n)
		}
		ctx := &click.Context{}
		for i, d := range dsts {
			p := pkt.New(64, addr("10.0.0.1"),
				netip.AddrFrom4([4]byte{byte(d >> 24), byte(d >> 16), byte(d >> 8), byte(d)}),
				uint16(i), 80)
			p.IPv4().SetTTL(1 + (ttlSeed+byte(i))%255%3) // TTLs 1..3
			p.IPv4().UpdateChecksum()
			check.Push(ctx, 0, p)
		}
		after := 0
		for _, n := range c.ports {
			after += len(n)
		}
		return after-before == len(dsts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIPRoutePipeline(b *testing.B) {
	table := lpm.NewDir248()
	if err := lpm.Build(table, lpm.RandomTable(256*1024, 4, 11, true)); err != nil {
		b.Fatal(err)
	}
	table.Freeze()
	check := &CheckIPHeader{}
	look := NewLPMLookup(table)
	ttl := &DecIPTTL{}
	hops := NewHopSwitch(4)
	disc := &Discard{}
	check.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { look.Push(ctx, 0, p) })
	check.SetOutput(1, func(ctx *click.Context, p *pkt.Packet) { disc.Push(ctx, 0, p) })
	look.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { ttl.Push(ctx, 0, p) })
	look.SetOutput(1, func(ctx *click.Context, p *pkt.Packet) { disc.Push(ctx, 0, p) })
	ttl.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { hops.Push(ctx, 0, p) })
	ttl.SetOutput(1, func(ctx *click.Context, p *pkt.Packet) { disc.Push(ctx, 0, p) })
	for i := 0; i < 4; i++ {
		hops.SetOutput(i, func(ctx *click.Context, p *pkt.Packet) { disc.Push(ctx, 0, p) })
	}
	p := testPacket(64, "10.1.2.3")
	ctx := &click.Context{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.IPv4().SetTTL(64)
		p.IPv4().UpdateChecksum()
		check.Push(ctx, 0, p)
		ctx.TakeCycles()
	}
}
