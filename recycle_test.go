package routebricks

import (
	"net/netip"
	"testing"

	"routebricks/internal/elements"
	"routebricks/internal/pkt"
)

// recycleConfig ends every path in a registry terminal: good frames
// pass the Reassembler (unfragmented traffic goes straight through)
// into Discard, header errors into Sink, and a fragment train is
// consumed by the Reassembler, whose rebuilt datagram ends in Discard.
const recycleConfig = `
	check :: CheckIPHeader;
	re    :: Reassembler;
	drop  :: Discard;
	bad   :: Sink;
	check[0] -> re -> drop;
	check[1] -> bad;
`

// TestClickTextTerminalsRecycle checks that the terminals a Click text
// names return every buffer they drop or consume to the pool: the
// pool's put count rises by one per good frame (Discard), per bad frame
// (Sink), per fragment (Reassembler) and for the rebuilt datagram
// (Discard again).
func TestClickTextTerminalsRecycle(t *testing.T) {
	pipe, err := Load(recycleConfig, Options{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	frame := func(size int) *pkt.Packet {
		p := pkt.New(size, src, dst, 1, 2)
		p.IPv4().SetTTL(64)
		p.IPv4().UpdateChecksum()
		return p
	}
	const good, bad = 8, 3
	var in []*pkt.Packet
	for i := 0; i < good; i++ {
		in = append(in, frame(pkt.MinSize))
	}
	for i := 0; i < bad; i++ {
		p := frame(pkt.MinSize)
		p.IPv4().SetTTL(7) // checksum now stale: CheckIPHeader rejects it
		in = append(in, p)
	}
	whole := frame(1400)
	whole.IPv4().SetID(42)
	whole.IPv4().UpdateChecksum()
	frags := whole.Fragment(576)
	if len(frags) < 2 {
		t.Fatalf("fragment train has %d fragments", len(frags))
	}
	pkt.DefaultPool.Put(whole)
	in = append(in, frags...)

	before := pipe.Snapshot().Pool.Puts
	for _, p := range in {
		if !pipe.Push(0, p) {
			t.Fatal("input ring full")
		}
	}
	for pipe.Step() > 0 {
	}
	if n := pipe.Element(0, "drop").(*elements.Discard).Count(); n != good+1 {
		t.Fatalf("Discard saw %d packets, want %d", n, good+1)
	}
	if n := pipe.Element(0, "bad").(*elements.Sink).Count(); n != bad {
		t.Fatalf("Sink saw %d packets, want %d", n, bad)
	}
	got := pipe.Snapshot().Pool.Puts - before
	want := uint64(good + bad + len(frags) + 1)
	if got != want {
		t.Fatalf("pool puts rose by %d, want %d (%d good, %d bad, %d fragments, 1 rebuilt datagram)",
			got, want, good, bad, len(frags))
	}
}
