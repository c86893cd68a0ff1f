package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"

	"routebricks/internal/cluster"
	"routebricks/internal/pkt"
	"routebricks/internal/trafficgen"
)

// Every workload draws its inputs from one seed-built frame set: 8192
// frames over 256 active flows. The routers see only these bytes; the
// generator keeps the per-frame bookkeeping (flow, ingress member,
// owning member, fast or slow path) on its own side.
const (
	numFrames   = 8192
	activeFlows = 256
	sentTTL     = 64

	// Payload layout behind the UDP header. A 64 B frame has 22 payload
	// bytes, so the stamp has to fit in that: per-flow sequence number,
	// due time, the frame's index in the set, and a magic tail. Longer
	// frames carry a seed-derived pattern after it.
	payloadOff = pkt.EtherHdrLen + pkt.IPv4HdrLen + pkt.UDPHdrLen
	seqOff     = payloadOff
	stampOff   = payloadOff + 8
	idxOff     = payloadOff + 16
	magicOff   = payloadOff + 20
	magic      = 0x5242 // "RB"
)

// frameKind says which path through the router a frame takes. Slow-path
// frames are built to be dropped at one named drop site each.
type frameKind uint8

const (
	fastPath     frameKind = iota
	slowTTL                // TTL 1: passes the header check and lookup, dies in DecIPTTL
	slowChecksum           // corrupt IPv4 checksum: dies in CheckIPHeader
	slowNoRoute            // 192.0.2.0/24 destination: misses the FIB
	numKinds
)

func (k frameKind) String() string {
	return [...]string{"fast", "ttl", "checksum", "noroute"}[k]
}

type frame struct {
	p       *pkt.Packet
	kind    frameKind
	flow    int // index into the per-flow sequence counters
	ingress int // member whose ext port the frame is sent to
	owner   int // member (or next hop) that owns the destination prefix
}

type frameSet struct {
	frames []frame
	flows  int
}

// frameConfig is what a workload varies about its frames.
type frameConfig struct {
	sizes trafficgen.SizeDist
	// prefixes is how many 10.d.0.0/16 prefixes destinations are spread
	// over; ingress is how many members flows enter at (1: all at member 0).
	prefixes int
	ingress  int
	// slowShare is the fraction of frames that leave the fast path,
	// split evenly over the three slow kinds.
	slowShare float64
}

// buildFrames is deterministic in seed: the same seed gives a
// byte-identical frame set.
func buildFrames(seed int64, cfg frameConfig) *frameSet {
	src := trafficgen.New(trafficgen.Config{
		Seed:        seed,
		Sizes:       cfg.sizes,
		ActiveFlows: activeFlows,
		DstAddrs:    cluster.DestPool(cfg.prefixes, 8),
	})
	rng := rand.New(rand.NewSource(seed ^ 0x5eedf00d))
	fs := &frameSet{frames: make([]frame, numFrames)}
	flowIDs := make(map[pkt.FlowKey]int)
	nextSlow := slowTTL
	for i := range fs.frames {
		p := src.Next()
		key := p.Flow()
		id, ok := flowIDs[key]
		if !ok {
			id = len(flowIDs)
			flowIDs[key] = id
		}
		f := frame{p: p, flow: id, owner: int(p.IPv4().Dst().As4()[1])}
		// A flow always enters at the same member, keyed on its source
		// address, as it would on a real line card.
		f.ingress = int(p.IPv4().SrcUint32() % uint32(cfg.ingress))
		payload := p.Data[payloadOff:]
		rng.Read(payload)
		binary.BigEndian.PutUint64(p.Data[seqOff:], 0)
		binary.BigEndian.PutUint64(p.Data[stampOff:], 0)
		binary.BigEndian.PutUint32(p.Data[idxOff:], uint32(i))
		binary.BigEndian.PutUint16(p.Data[magicOff:], magic)
		if rng.Float64() < cfg.slowShare {
			f.kind = nextSlow
			makeSlow(p, f.kind, byte(i))
			if nextSlow++; nextSlow == numKinds {
				nextSlow = slowTTL
			}
		}
		fs.frames[i] = f
	}
	fs.flows = len(flowIDs)
	return fs
}

// makeSlow rewrites a valid frame so that exactly one drop site takes it.
func makeSlow(p *pkt.Packet, kind frameKind, host byte) {
	ih := p.IPv4()
	switch kind {
	case slowTTL:
		ih.SetTTL(1)
		ih.UpdateChecksum()
	case slowChecksum:
		ih.SetChecksum(ih.Checksum() ^ 0x5555)
	case slowNoRoute:
		ih.SetDst(netip.AddrFrom4([4]byte{192, 0, 2, host}))
		ih.UpdateChecksum()
	}
	p.InvalidateFlowHash()
}

// stamp writes the per-send fields into a frame's payload. The IPv4
// checksum covers the header only, so the frame stays valid.
func stamp(p *pkt.Packet, seq uint64, dueNs int64) {
	binary.BigEndian.PutUint64(p.Data[seqOff:], seq)
	binary.BigEndian.PutUint64(p.Data[stampOff:], uint64(dueNs))
}

// delivered is what the sink learns from one frame it received.
type delivered struct {
	idx   int
	seq   uint64
	dueNs int64
}

// verifyDelivered checks a frame that came out of the router against the
// frame that went in: same length, TTL decremented once from sentTTL,
// valid IPv4 checksum, every other header field and the whole payload
// intact, steering MACs naming the ingress and owning members. A
// slow-path frame must never come out at all.
func (fs *frameSet) verifyDelivered(d []byte) (delivered, error) {
	var out delivered
	if len(d) < pkt.MinSize {
		return out, fmt.Errorf("runt frame of %d bytes", len(d))
	}
	if binary.BigEndian.Uint16(d[magicOff:]) != magic {
		return out, fmt.Errorf("payload magic %#x", binary.BigEndian.Uint16(d[magicOff:]))
	}
	idx := int(binary.BigEndian.Uint32(d[idxOff:]))
	if idx >= len(fs.frames) {
		return out, fmt.Errorf("frame index %d out of range", idx)
	}
	f := &fs.frames[idx]
	orig := f.p.Data
	if f.kind != fastPath {
		return out, fmt.Errorf("frame %d (%s) should have been dropped but was delivered", idx, f.kind)
	}
	if len(d) != len(orig) {
		return out, fmt.Errorf("frame %d: length %d, sent %d", idx, len(d), len(orig))
	}
	eh := pkt.EtherHdr(d)
	if dst := eh.Dst(); dst != pkt.NodeMAC(f.owner) {
		return out, fmt.Errorf("frame %d: destination MAC %s, owner is member %d", idx, dst, f.owner)
	}
	if src := eh.Src(); src != pkt.NodeMAC(f.ingress) {
		return out, fmt.Errorf("frame %d: source MAC %s, ingress is member %d", idx, src, f.ingress)
	}
	ih := pkt.IPv4Hdr(d[pkt.EtherHdrLen:])
	if ih.TTL() != sentTTL-1 {
		return out, fmt.Errorf("frame %d: TTL %d, want %d", idx, ih.TTL(), sentTTL-1)
	}
	if !ih.VerifyChecksum() {
		return out, fmt.Errorf("frame %d: bad IPv4 checksum", idx)
	}
	// Ethertype through protocol, minus the TTL byte; then addresses
	// onward, minus the sequence and stamp fields the generator rewrites.
	const ttlOff, csumOff = pkt.EtherHdrLen + 8, pkt.EtherHdrLen + 10
	if !bytes.Equal(d[12:ttlOff], orig[12:ttlOff]) ||
		d[ttlOff+1] != orig[ttlOff+1] ||
		!bytes.Equal(d[csumOff+2:seqOff], orig[csumOff+2:seqOff]) ||
		!bytes.Equal(d[idxOff:], orig[idxOff:]) {
		return out, fmt.Errorf("frame %d: header or payload bytes changed in flight", idx)
	}
	out.idx = idx
	out.seq = binary.BigEndian.Uint64(d[seqOff:])
	out.dueNs = int64(binary.BigEndian.Uint64(d[stampOff:]))
	return out, nil
}
