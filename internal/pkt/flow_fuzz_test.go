package pkt

import (
	"net/netip"
	"testing"
)

// FuzzFlow feeds arbitrary frames to the flow-key parser, as a socket
// loop's steering or VLB stage would: runts included. Neither hash may
// panic, each must be stable once cached, and the RSS hash must not
// change when the address/port pairs swap (the reply direction).
func FuzzFlow(f *testing.F) {
	for _, n := range []int{0, EtherHdrLen, EtherHdrLen + IPv4HdrLen - 1, EtherHdrLen + IPv4HdrLen} {
		f.Add(make([]byte, n))
	}
	udp := New(64, netip.MustParseAddr("10.1.0.1"), netip.MustParseAddr("10.2.0.2"), 1234, 80)
	f.Add(append([]byte(nil), udp.Data...))
	DefaultPool.Put(udp)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Packet{Data: data}
		flow, rss := p.FlowHash(), p.RSSHash()
		if p.FlowHash() != flow || p.RSSHash() != rss {
			t.Fatal("a cached hash moved")
		}
		const ips, l4 = EtherHdrLen + 12, EtherHdrLen + IPv4HdrLen
		if len(data) < l4 {
			return
		}
		rev := append([]byte(nil), data...)
		swap := func(at, n int) {
			a, b := rev[at:at+n], rev[at+n:at+2*n]
			tmp := append([]byte(nil), a...)
			copy(a, b)
			copy(b, tmp)
		}
		swap(ips, 4) // source ↔ destination address
		if len(rev) >= l4+4 {
			swap(l4, 2) // source ↔ destination port
		}
		if got := (&Packet{Data: rev}).RSSHash(); got != rss {
			t.Fatalf("reply direction steers apart: %x vs %x", got, rss)
		}
	})
}
