package elements

import (
	"bytes"
	"math/rand"
	"testing"

	"routebricks/internal/click"
	"routebricks/internal/pkt"
)

func TestARPResponderAnswers(t *testing.T) {
	mac := pkt.MAC{0xaa, 0xbb, 0xcc, 0, 0, 1}
	resp := NewARPResponder(mac, addr("192.0.2.1"), addr("192.0.2.2"))
	c := newCapture()
	wireOut(resp, 0, c, 0)
	wireOut(resp, 1, c, 1)
	ctx := &click.Context{}

	asker := pkt.MAC{1, 2, 3, 4, 5, 6}
	req := pkt.NewARP(pkt.ARPRequest, asker, addr("192.0.2.99"), pkt.MAC{}, addr("192.0.2.1"))
	resp.Push(ctx, 0, req)
	if len(c.ports[0]) != 1 || resp.Replies() != 1 {
		t.Fatal("owned address not answered")
	}
	reply := c.ports[0][0]
	a := reply.ARP()
	if a.Op() != pkt.ARPReply {
		t.Fatal("not a reply")
	}
	if a.SenderMAC() != mac || a.SenderIP() != addr("192.0.2.1") {
		t.Fatal("reply sender wrong")
	}
	if a.TargetMAC() != asker || reply.Ether().Dst() != asker {
		t.Fatal("reply not addressed to the asker")
	}

	// Request for an address we don't own: passes through.
	other := pkt.NewARP(pkt.ARPRequest, asker, addr("192.0.2.99"), pkt.MAC{}, addr("192.0.2.77"))
	resp.Push(ctx, 0, other)
	if len(c.ports[1]) != 1 {
		t.Fatal("unowned request not passed through")
	}
	// Non-ARP traffic passes through too.
	resp.Push(ctx, 0, testPacket(64, "10.0.0.1"))
	if len(c.ports[1]) != 2 {
		t.Fatal("IP packet not passed through")
	}
}

func TestARPQuerierResolvesAndQueues(t *testing.T) {
	mac := pkt.MAC{0xaa, 0, 0, 0, 0, 2}
	q := NewARPQuerier(mac, addr("192.0.2.10"))
	c := newCapture()
	wireOut(q, 0, c, 0)
	wireOut(q, 1, c, 1)
	ctx := &click.Context{}

	// Two packets to an unresolved next hop: one ARP request goes out,
	// both packets wait.
	p1 := testPacket(64, "192.0.2.20")
	p2 := testPacket(64, "192.0.2.20")
	q.Push(ctx, 0, p1)
	q.Push(ctx, 0, p2)
	if len(c.ports[0]) != 1 {
		t.Fatalf("wire carried %d frames, want just the ARP request", len(c.ports[0]))
	}
	if c.ports[0][0].Ether().EtherType() != pkt.EtherTypeARP {
		t.Fatal("first frame is not an ARP request")
	}

	// The reply releases both queued packets with resolved MACs.
	peer := pkt.MAC{9, 9, 9, 9, 9, 9}
	reply := pkt.NewARP(pkt.ARPReply, peer, addr("192.0.2.20"), mac, addr("192.0.2.10"))
	q.Push(ctx, 1, reply)
	if len(c.ports[0]) != 3 {
		t.Fatalf("wire carried %d frames after reply, want 3", len(c.ports[0]))
	}
	for _, f := range c.ports[0][1:] {
		if f.Ether().Dst() != peer || f.Ether().Src() != mac {
			t.Fatal("queued packet not rewritten")
		}
	}
	// Subsequent packets resolve from cache without a new request.
	q.Push(ctx, 0, testPacket(64, "192.0.2.20"))
	reqs, resolved, _ := q.Stats()
	if reqs != 1 || resolved != 2 {
		t.Fatalf("stats = %d/%d", reqs, resolved)
	}
	if q.CacheSize() != 1 {
		t.Fatalf("cache = %d", q.CacheSize())
	}
}

func TestARPQuerierOverflow(t *testing.T) {
	q := NewARPQuerier(pkt.MAC{1}, addr("192.0.2.10"))
	q.PendingLimit = 2
	c := newCapture()
	wireOut(q, 0, c, 0)
	wireOut(q, 1, c, 1)
	ctx := &click.Context{}
	for i := 0; i < 5; i++ {
		q.Push(ctx, 0, testPacket(64, "192.0.2.30"))
	}
	_, _, dropped := q.Stats()
	if dropped != 3 || len(c.ports[1]) != 3 {
		t.Fatalf("dropped = %d (diverted %d), want 3", dropped, len(c.ports[1]))
	}
}

func TestReassemblerRoundTrip(t *testing.T) {
	// Fragment then reassemble; payload must survive byte-for-byte.
	orig := testPacket(1400, "10.0.0.2")
	rng := rand.New(rand.NewSource(5))
	for i := pkt.EtherHdrLen + pkt.IPv4HdrLen; i < orig.Len(); i++ {
		orig.Data[i] = byte(rng.Int())
	}
	orig.IPv4().SetID(0x4242)
	orig.IPv4().UpdateChecksum()
	want := append([]byte(nil), orig.Data...)

	frags := orig.Clone().Fragment(576)
	if len(frags) < 3 {
		t.Fatalf("only %d fragments", len(frags))
	}
	// Shuffle: reassembly must handle out-of-order arrival.
	rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })

	re := NewReassembler()
	c := newCapture()
	wireOut(re, 0, c, 0)
	ctx := &click.Context{NowNS: func() int64 { return 1000 }}
	for _, f := range frags {
		re.Push(ctx, 0, f)
	}
	if re.Completed() != 1 || len(c.ports[0]) != 1 {
		t.Fatalf("completed = %d", re.Completed())
	}
	got := c.ports[0][0]
	if got.Len() != len(want) {
		t.Fatalf("length %d, want %d", got.Len(), len(want))
	}
	if !got.IPv4().VerifyChecksum() {
		t.Fatal("reassembled checksum invalid")
	}
	if !bytes.Equal(got.Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:], want[pkt.EtherHdrLen+pkt.IPv4HdrLen:]) {
		t.Fatal("payload corrupted")
	}
	if re.Pending() != 0 {
		t.Fatalf("pending = %d", re.Pending())
	}
}

func TestReassemblerPassesUnfragmented(t *testing.T) {
	re := NewReassembler()
	c := newCapture()
	wireOut(re, 0, c, 0)
	p := testPacket(200, "10.0.0.2")
	re.Push(&click.Context{}, 0, p)
	if len(c.ports[0]) != 1 || c.ports[0][0] != p {
		t.Fatal("unfragmented packet touched")
	}
}

func TestReassemblerInterleavedDatagrams(t *testing.T) {
	a := testPacket(1200, "10.0.0.2")
	a.IPv4().SetID(1)
	a.IPv4().UpdateChecksum()
	b := testPacket(1200, "10.0.0.3")
	b.IPv4().SetID(2)
	b.IPv4().UpdateChecksum()
	fa := a.Fragment(576)
	fb := b.Fragment(576)

	re := NewReassembler()
	c := newCapture()
	wireOut(re, 0, c, 0)
	ctx := &click.Context{NowNS: func() int64 { return 1 }}
	// Interleave the two datagrams' fragments.
	for i := 0; i < len(fa) || i < len(fb); i++ {
		if i < len(fa) {
			re.Push(ctx, 0, fa[i])
		}
		if i < len(fb) {
			re.Push(ctx, 0, fb[i])
		}
	}
	if re.Completed() != 2 {
		t.Fatalf("completed = %d, want 2", re.Completed())
	}
}

func TestReassemblerTimeout(t *testing.T) {
	p := testPacket(1200, "10.0.0.2")
	frags := p.Fragment(576)
	re := NewReassembler()
	re.TimeoutNs = 1000
	c := newCapture()
	wireOut(re, 0, c, 0)
	now := int64(100)
	ctx := &click.Context{NowNS: func() int64 { return now }}
	re.Push(ctx, 0, frags[0]) // first fragment only
	if re.Pending() != 1 {
		t.Fatal("fragment not held")
	}
	// A much later unrelated fragment triggers eviction.
	now = 10_000
	other := testPacket(1200, "10.9.9.9")
	other.IPv4().SetID(7)
	other.IPv4().UpdateChecksum()
	re.Push(ctx, 0, other.Fragment(576)[0])
	if re.TimedOut() != 1 {
		t.Fatalf("timedOut = %d", re.TimedOut())
	}
	if re.Completed() != 0 {
		t.Fatal("phantom completion")
	}
}

// End-to-end: fragment → reassemble through a chain, with the ESP
// gateway in between (fragments of an encrypted packet).
func TestFragmentESPReassembleChain(t *testing.T) {
	frag := NewFragmenter(576)
	re := NewReassembler()
	c := newCapture()
	frag.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { re.Push(ctx, 0, p) })
	wireOut(frag, 1, c, 9)
	wireOut(re, 0, c, 0)
	ctx := &click.Context{NowNS: func() int64 { return 1 }}

	orig := testPacket(1490, "10.0.0.2")
	want := append([]byte(nil), orig.Data...)
	frag.Push(ctx, 0, orig.Clone())
	if len(c.ports[0]) != 1 {
		t.Fatalf("chain delivered %d packets", len(c.ports[0]))
	}
	got := c.ports[0][0]
	if !bytes.Equal(got.Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:], want[pkt.EtherHdrLen+pkt.IPv4HdrLen:]) {
		t.Fatal("chain corrupted payload")
	}
}

// fragmentFrame builds one IPv4 fragment of datagram id: data at byte
// offset off (a multiple of 8), with MF as given, in a frame padded to
// the Ethernet minimum.
func fragmentFrame(id uint16, off int, data []byte, mf bool) *pkt.Packet {
	p := &pkt.Packet{Data: make([]byte, max(pkt.EtherHdrLen+pkt.IPv4HdrLen+len(data), pkt.MinSize))}
	p.Ether().SetEtherType(pkt.EtherTypeIPv4)
	ih := p.IPv4()
	ih.SetVersionIHL()
	ih.SetTotalLength(uint16(pkt.IPv4HdrLen + len(data)))
	ih.SetID(id)
	ih.SetTTL(64)
	ih.SetProtocol(pkt.ProtoUDP)
	ih.SetSrc(addr("10.0.0.1"))
	ih.SetDst(addr("10.0.0.2"))
	fo := uint16(off / 8)
	if mf {
		fo |= pkt.FlagMF
	}
	ih.SetFlagsOffset(fo)
	ih.UpdateChecksum()
	copy(p.Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:], data)
	return p
}

// optionFragment is fragmentFrame with IP options: a 24-byte header
// (IHL 6) whose four NOP option bytes precede data.
func optionFragment(id uint16, off int, data []byte, mf bool) *pkt.Packet {
	p := fragmentFrame(id, off, append([]byte{1, 1, 1, 1}, data...), mf)
	p.IPv4()[0] = 0x46
	p.IPv4().UpdateChecksum()
	return p
}

// TestReassemblerIPOptions: a fragment with IP options is dropped as
// malformed. The rebuild copies a 20-byte header, so a first fragment's
// option bytes would otherwise come out as the datagram's first payload
// bytes, under a header still claiming IHL 6.
func TestReassemblerIPOptions(t *testing.T) {
	re := NewReassembler()
	c := newCapture()
	wireOut(re, 0, c, 0)
	ctx := &click.Context{}
	re.Push(ctx, 0, optionFragment(5, 0, []byte{5, 6, 7, 8}, true))
	re.Push(ctx, 0, fragmentFrame(5, 8, bytes.Repeat([]byte{9}, 8), false))
	if len(c.ports[0]) != 0 {
		t.Fatalf("emitted %x from a train whose first fragment has options", c.ports[0][0].Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:])
	}
	if re.Malformed() != 1 || re.Pending() != 1 {
		t.Fatalf("malformed = %d, pending = %d; want 1, 1", re.Malformed(), re.Pending())
	}
}

// TestReassemblerZeroLengthFragment: a first fragment that carries no
// data must not count as carrying block 0, or the following final
// fragment completes a datagram whose first 8 bytes were never sent.
func TestReassemblerZeroLengthFragment(t *testing.T) {
	re := NewReassembler()
	c := newCapture()
	wireOut(re, 0, c, 0)
	ctx := &click.Context{}
	empty := fragmentFrame(9, 0, nil, true)
	if !(&CheckIPHeader{}).headerOK(empty) {
		t.Fatal("zero-length fragment does not pass CheckIPHeader; the test no longer models the wire")
	}
	re.Push(ctx, 0, empty)
	re.Push(ctx, 0, fragmentFrame(9, 8, bytes.Repeat([]byte{0xAB}, 8), false))
	if len(c.ports[0]) != 0 {
		t.Fatalf("emitted a %d-byte datagram from a train missing bytes 0-7", c.ports[0][0].Len())
	}
	if re.Malformed() != 1 || re.Pending() != 1 {
		t.Fatalf("malformed = %d, pending = %d; want 1, 1", re.Malformed(), re.Pending())
	}
}

// TestReassemblerOversizedTrain: fragments that run past the largest
// IPv4 payload (65,515 bytes) are dropped instead of overrunning the
// per-block bitmap.
func TestReassemblerOversizedTrain(t *testing.T) {
	re := NewReassembler()
	c := newCapture()
	wireOut(re, 0, c, 0)
	ctx := &click.Context{}
	chunk := bytes.Repeat([]byte{0x5A}, 1480)
	for i := 0; i < 45; i++ {
		re.Push(ctx, 0, fragmentFrame(3, i*1480, chunk, true))
	}
	re.Push(ctx, 0, fragmentFrame(3, 65528, chunk, false))
	if len(c.ports[0]) != 0 || re.Completed() != 0 {
		t.Fatalf("emitted %d datagrams from an oversized train", len(c.ports[0]))
	}
	// Fragment 44 (65,120–66,600) and the final one end past 65,515.
	if re.Malformed() != 2 {
		t.Fatalf("malformed = %d, want 2", re.Malformed())
	}
}

// TestReassemblerMalformedFragments covers the remaining drops: a
// TotalLength the frame does not hold (no CheckIPHeader in front), a
// non-final fragment that is not a multiple of 8 bytes, and final
// fragments that disagree about where the datagram ends.
func TestReassemblerMalformedFragments(t *testing.T) {
	re := NewReassembler()
	c := newCapture()
	wireOut(re, 0, c, 0)
	ctx := &click.Context{}
	data := bytes.Repeat([]byte{0x11}, 16)

	long := fragmentFrame(1, 0, data, true)
	long.IPv4().SetTotalLength(1400)
	re.Push(ctx, 0, long)
	re.Push(ctx, 0, &pkt.Packet{Data: make([]byte, pkt.EtherHdrLen+8)})
	re.Push(ctx, 0, fragmentFrame(2, 0, data[:12], true))
	if re.Malformed() != 3 || re.Pending() != 0 {
		t.Fatalf("malformed = %d, pending = %d; want 3, 0", re.Malformed(), re.Pending())
	}

	re.Push(ctx, 0, fragmentFrame(4, 16, data[:4], false)) // ends at 20
	re.Push(ctx, 0, fragmentFrame(4, 24, data[:8], false)) // a second, later end
	re.Push(ctx, 0, fragmentFrame(4, 16, data, true))      // runs past the end
	if re.Malformed() != 5 {
		t.Fatalf("malformed = %d, want 5", re.Malformed())
	}
	re.Push(ctx, 0, fragmentFrame(4, 0, data, true))
	if len(c.ports[0]) != 1 || c.ports[0][0].Len() != pkt.EtherHdrLen+pkt.IPv4HdrLen+20 {
		t.Fatalf("want one 20-byte-payload datagram, got %d", len(c.ports[0]))
	}
}
