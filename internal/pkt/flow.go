package pkt

import "encoding/binary"

// FlowKey identifies a transport flow by its 5-tuple. VLB flowlet tracking
// and RSS queue selection both key on it.
type FlowKey struct {
	Src, Dst uint32
	SrcPort  uint16
	DstPort  uint16
	Proto    uint8
}

// Flow extracts the 5-tuple of an IPv4/{TCP,UDP} packet. For other
// protocols the port fields are zero, which still yields a stable key; a
// frame too short to hold a full IPv4 header yields the zero key, so a
// runt hashes instead of panicking.
func (p *Packet) Flow() FlowKey {
	if len(p.Data) < EtherHdrLen+IPv4HdrLen {
		return FlowKey{}
	}
	ih := p.IPv4()
	k := FlowKey{
		Src:   ih.SrcUint32(),
		Dst:   ih.DstUint32(),
		Proto: ih.Protocol(),
	}
	if k.Proto == ProtoTCP || k.Proto == ProtoUDP {
		l4 := p.Data[EtherHdrLen+IPv4HdrLen:]
		if len(l4) >= 4 {
			k.SrcPort = binary.BigEndian.Uint16(l4[0:2])
			k.DstPort = binary.BigEndian.Uint16(l4[2:4])
		}
	}
	return k
}

// Hash mixes the 5-tuple into a 64-bit value with an FNV-1a-style mix.
// NIC RSS and flowlet tables take subsets of these bits. The function is
// symmetric in nothing: direction matters, as it does for real RSS.
func (k FlowKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			h ^= v & 0xFF
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(k.Src), 4)
	mix(uint64(k.Dst), 4)
	mix(uint64(k.SrcPort), 2)
	mix(uint64(k.DstPort), 2)
	mix(uint64(k.Proto), 1)
	return h
}

// FlowHash returns (and caches) the packet's flow hash.
func (p *Packet) FlowHash() uint64 {
	if p.FlowID == 0 {
		p.FlowID = p.Flow().Hash()
		if p.FlowID == 0 {
			p.FlowID = 1 // reserve 0 as "unset"
		}
	}
	return p.FlowID
}

// SymmetricHash mixes the 5-tuple like Hash, but canonicalizes the
// direction first so both halves of a bidirectional flow produce the
// same value — the property RSS steering needs to land a connection's
// request and reply traffic on the same core. The (address, port) pairs
// swap as units rather than each field sorting independently, so two
// distinct flows that happen to share sorted endpoints don't collide.
func (k FlowKey) SymmetricHash() uint64 {
	if k.Dst < k.Src || (k.Dst == k.Src && k.DstPort < k.SrcPort) {
		k.Src, k.Dst = k.Dst, k.Src
		k.SrcPort, k.DstPort = k.DstPort, k.SrcPort
	}
	return k.Hash()
}

// RSSHash returns (and caches) the symmetric steering hash used to pick
// an input queue. Fragments past the first carry no L4 header, so any
// fragment of a fragmented datagram (MF set or nonzero offset) hashes
// on addresses and protocol alone — the 3-tuple, exactly what RSS NICs
// fall back to — which keeps a whole fragment train on one core, where
// the Reassembler's partial-datagram state lives.
func (p *Packet) RSSHash() uint64 {
	if p.rssHash == 0 {
		k := p.Flow()
		if k.SrcPort != 0 || k.DstPort != 0 { // ports imply a full IPv4 header
			if ih := p.IPv4(); ih.MF() || ih.FragOffset() != 0 {
				k.SrcPort, k.DstPort = 0, 0
			}
		}
		p.rssHash = k.SymmetricHash()
		if p.rssHash == 0 {
			p.rssHash = 1 // reserve 0 as "unset"
		}
	}
	return p.rssHash
}

// InvalidateFlowHash clears both cached hashes. Elements that rewrite
// any field the 5-tuple covers (addresses, ports, protocol, the
// fragmentation words) must call it before letting the packet go
// downstream; TTL decrements and checksum updates don't need to.
func (p *Packet) InvalidateFlowHash() {
	p.FlowID = 0
	p.rssHash = 0
}
