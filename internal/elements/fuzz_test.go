package elements

import (
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
