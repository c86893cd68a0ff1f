package elements

import (
	"encoding/binary"
	"slices"
	"testing"

	"routebricks/internal/click"
	"routebricks/internal/pkt"
)

// FuzzIPv4Path feeds arbitrary frames to the header path every external
// frame takes: CheckIPHeader, then DecIPTTL on what it accepts. The
// per-packet and batch entries must reach the same verdict, the batch
// must deliver each of its packets exactly once and in order, and an
// accepted frame either leaves DecIPTTL one hop younger with a valid
// checksum or is diverted at TTL ≤ 1.
func FuzzIPv4Path(f *testing.F) {
	valid := testPacket(64, "10.0.0.2")
	seed := func(edit func(h pkt.IPv4Hdr)) {
		data := slices.Clone(valid.Data)
		if edit != nil {
			edit(pkt.IPv4Hdr(data[pkt.EtherHdrLen:]))
		}
		f.Add(data)
	}
	seed(nil)
	seed(func(h pkt.IPv4Hdr) { h.SetTTL(1); h.UpdateChecksum() })
	seed(func(h pkt.IPv4Hdr) { h.SetTTL(2); h.UpdateChecksum() })
	seed(func(h pkt.IPv4Hdr) { h.SetChecksum(0xFEFF) })
	seed(func(h pkt.IPv4Hdr) { h[0] = 0x46; h.UpdateChecksum() })
	seed(func(h pkt.IPv4Hdr) { h.SetTotalLength(1500); h.UpdateChecksum() })
	for _, n := range []int{0, pkt.EtherHdrLen, pkt.EtherHdrLen + pkt.IPv4HdrLen - 1} {
		f.Add(make([]byte, n))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx := &click.Context{}

		// Per packet.
		check := &CheckIPHeader{}
		one := newCapture()
		wireOut(check, 0, one, 0)
		wireOut(check, 1, one, 1)
		frame := &pkt.Packet{Data: slices.Clone(data)}
		check.Push(ctx, 0, frame)
		accepted := len(one.ports[0]) == 1
		if len(one.ports[0])+len(one.ports[1]) != 1 {
			t.Fatalf("Push emitted %d good and %d bad packets for one frame", len(one.ports[0]), len(one.ports[1]))
		}

		// The same frame between two valid ones in a batch.
		checkB := &CheckIPHeader{}
		many := newCapture()
		wireOut(checkB, 0, many, 0)
		wireOut(checkB, 1, many, 1)
		b := pkt.NewBatch(3)
		for seq, p := range []*pkt.Packet{testPacket(64, "10.0.0.2"), {Data: slices.Clone(data)}, testPacket(64, "10.0.0.3")} {
			p.SeqNo = uint64(seq)
			b.Add(p)
		}
		checkB.PushBatch(ctx, 0, b)
		good, bad := []uint64{0, 1, 2}, []uint64(nil)
		if !accepted {
			good, bad = []uint64{0, 2}, []uint64{1}
		}
		if got := seqs(many.ports[0]); !slices.Equal(got, good) {
			t.Fatalf("PushBatch good path = %v, want %v (Push accepted: %v)", got, good, accepted)
		}
		if got := seqs(many.ports[1]); !slices.Equal(got, bad) {
			t.Fatalf("PushBatch bad path = %v, want %v (Push accepted: %v)", got, bad, accepted)
		}
		if !accepted {
			return
		}

		dec := &DecIPTTL{}
		out := newCapture()
		wireOut(dec, 0, out, 0)
		wireOut(dec, 1, out, 1)
		ttl := frame.IPv4().TTL()
		dec.Push(ctx, 0, frame)
		switch {
		case ttl <= 1:
			if len(out.ports[1]) != 1 || frame.IPv4().TTL() != ttl {
				t.Fatalf("TTL %d: not diverted unchanged (now %d)", ttl, frame.IPv4().TTL())
			}
		case len(out.ports[0]) != 1:
			t.Fatalf("TTL %d: live frame diverted", ttl)
		case frame.IPv4().TTL() != ttl-1:
			t.Fatalf("TTL %d became %d", ttl, frame.IPv4().TTL())
		case !frame.IPv4().VerifyChecksum():
			t.Fatalf("TTL %d: checksum invalid after the decrement", ttl)
		}
	})
}

// reasmPattern is the payload every fuzzed fragment carries: byte i of
// a datagram is reasmPattern[i], never zero, so a byte no fragment
// carried (a zero-filled hole) cannot pass for one that did.
var reasmPattern = func() []byte {
	b := make([]byte, 0x2000*8+0x800) // largest offset plus longest fragment
	for i := range b {
		b[i] = byte(i%251) + 1
	}
	return b
}()

// FuzzReassembler decodes the input into a train of IPv4 fragments of
// two datagrams, 5 bytes each: a 13-bit offset (in 8-byte units), an
// 11-bit payload length, and flags (bit 0 MF, bit 1 which datagram,
// bit 2 IP options; MF is forced at offset 0).
// Every fragment carries reasmPattern at its offset and goes through
// CheckIPHeader into a Reassembler, except that a fragment with IP
// options (IHL 6, four option bytes) goes straight in, as it would with
// no CheckIPHeader in front, and carries nothing. No train may panic, and every
// datagram that comes out must have a valid checksum, a TotalLength of
// 20 plus its payload and at most 65,535, and only payload bytes some
// fragment of that datagram carried.
func FuzzReassembler(f *testing.F) {
	train := func(frags ...[3]int) []byte {
		var b []byte
		for _, fr := range frags {
			b = binary.BigEndian.AppendUint16(b, uint16(fr[0]/8))
			b = binary.BigEndian.AppendUint16(b, uint16(fr[1]))
			b = append(b, byte(fr[2]))
		}
		return b
	}
	f.Add(train([3]int{0, 1480, 1}, [3]int{1480, 1480, 1}, [3]int{2960, 100, 0}))
	f.Add(train([3]int{0, 0, 1}, [3]int{8, 8, 0}))                   // zero-length first fragment
	f.Add(train([3]int{0, 4, 1}, [3]int{8, 8, 0}))                   // non-final fragment not a multiple of 8
	f.Add(train([3]int{8, 4, 0}, [3]int{16, 8, 0}, [3]int{0, 8, 1})) // two final fragments
	var long [][3]int                                                // a train ending past 65,535 bytes
	for i := 0; i < 45; i++ {
		long = append(long, [3]int{i * 1480, 1480, 1})
	}
	f.Add(train(append(long, [3]int{65528, 1480, 0})...))
	f.Add(train([3]int{0, 4, 1 | 4}, [3]int{8, 8, 0})) // options on the first fragment

	f.Fuzz(func(t *testing.T, data []byte) {
		check := &CheckIPHeader{}
		re := NewReassembler()
		c := newCapture()
		check.SetOutput(0, func(ctx *click.Context, p *pkt.Packet) { re.Push(ctx, 0, p) })
		wireOut(check, 1, c, 1)
		wireOut(re, 0, c, 0)
		ctx := &click.Context{}
		var carried [2][]bool
		for i := range carried {
			carried[i] = make([]bool, len(reasmPattern))
		}
		for ; len(data) >= 5; data = data[5:] {
			off := int(binary.BigEndian.Uint16(data)&0x1FFF) * 8
			n := int(binary.BigEndian.Uint16(data[2:]) & 0x7FF)
			// Offset 0 without MF is a whole datagram, which passes
			// through untouched; at offset 0 the train always fragments.
			mf, id := data[4]&1 != 0 || off == 0, int(data[4]>>1&1)
			if data[4]&4 != 0 {
				re.Push(ctx, 0, optionFragment(uint16(id), off, reasmPattern[off:off+n], mf))
				continue
			}
			for i := off; i < off+n; i++ {
				carried[id][i] = true
			}
			check.Push(ctx, 0, fragmentFrame(uint16(id), off, reasmPattern[off:off+n], mf))
		}
		for _, out := range c.ports[0] {
			ih := out.IPv4()
			payload := out.Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:]
			if !ih.VerifyChecksum() {
				t.Fatal("emitted datagram fails its header checksum")
			}
			if tl := int(ih.TotalLength()); tl != pkt.IPv4HdrLen+len(payload) || tl > 0xFFFF {
				t.Fatalf("TotalLength %d for a %d-byte payload", tl, len(payload))
			}
			id := int(ih.ID())
			for i, b := range payload {
				if !carried[id][i] || b != reasmPattern[i] {
					t.Fatalf("datagram %d byte %d = %#x: no fragment carried it", id, i, b)
				}
			}
		}
	})
}
