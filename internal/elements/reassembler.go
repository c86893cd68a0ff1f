package elements

import (
	"routebricks/internal/click"
	"routebricks/internal/pkt"
)

// Reassembler reverses IP fragmentation (RFC 791 §3.2): fragments are
// collected per (src, dst, id, proto) until the datagram is complete,
// then emitted as one packet on output 0. Unfragmented packets pass
// straight through. Incomplete datagrams are evicted after Timeout
// nanoseconds of inactivity (checked lazily on traffic) and their
// fragments are dropped and counted.
//
// Fragments that could make the rebuilt datagram lie are dropped and
// counted in Malformed (see Push), so every emitted byte was carried by
// some fragment.
//
// The element owns the fragments it consumes and recycles each through
// the running core's pool shard: non-first fragments as soon as their
// payload is absorbed, the first fragment (whose headers seed the
// rebuilt datagram) after emission, malformed fragments at once, and
// every fragment of an evicted partial datagram.
type Reassembler struct {
	click.Base
	// TimeoutNs evicts stale partial datagrams (default 30 s, the classic
	// reassembly timer).
	TimeoutNs int64

	partial map[fragKey]*partialDatagram

	completed uint64
	timedOut  uint64
	malformed uint64
}

type fragKey struct {
	src, dst uint32
	id       uint16
	proto    uint8
}

type partialDatagram struct {
	first    *pkt.Packet // fragment with offset 0, holds the headers
	payload  []byte
	have     []bool // per 8-byte block
	totalLen int    // payload length, known once the last fragment arrives
	lastSeen int64
}

// NewReassembler builds the element.
func NewReassembler() *Reassembler {
	return &Reassembler{
		TimeoutNs: 30e9,
		partial:   make(map[fragKey]*partialDatagram),
	}
}

// InPorts reports 1.
func (r *Reassembler) InPorts() int { return 1 }

// OutPorts reports 1.
func (r *Reassembler) OutPorts() int { return 1 }

// Completed reports reassembled datagrams.
func (r *Reassembler) Completed() uint64 { return r.completed }

// TimedOut reports evicted partial datagrams.
func (r *Reassembler) TimedOut() uint64 { return r.timedOut }

// Pending reports partial datagrams currently held.
func (r *Reassembler) Pending() int { return len(r.partial) }

// Malformed reports fragments dropped by Push as malformed.
func (r *Reassembler) Malformed() uint64 { return r.malformed }

// Push collects fragments. It drops as malformed a frame too short for
// an IPv4 header and a fragment that has IP options (IHL other than 5:
// the rebuild copies a 20-byte header, so options would pass for
// payload), carries no data, has a TotalLength
// its frame does not hold, ends past the largest IPv4 payload (65,515
// bytes), is not final yet not a multiple of 8 bytes long (RFC 791), or
// contradicts its datagram's partial state (see conflicts).
func (r *Reassembler) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	const hdr = pkt.EtherHdrLen + pkt.IPv4HdrLen
	if len(p.Data) < hdr {
		r.drop(ctx, p)
		return
	}
	ih := p.IPv4()
	if !ih.MF() && ih.FragOffset() == 0 {
		r.Out(ctx, 0, p) // not fragmented
		return
	}
	now := ctx.Now()
	r.evict(ctx, now)

	off, end := ih.FragOffset(), pkt.EtherHdrLen+int(ih.TotalLength())
	fragEnd := off + end - hdr
	key := fragKey{src: ih.SrcUint32(), dst: ih.DstUint32(), id: ih.ID(), proto: ih.Protocol()}
	pd := r.partial[key]
	if ih.IHL() != 5 || end <= hdr || end > len(p.Data) || fragEnd > 0xFFFF-pkt.IPv4HdrLen ||
		ih.MF() && (end-hdr)%8 != 0 || pd != nil && pd.conflicts(fragEnd, ih.MF()) {
		r.drop(ctx, p)
		return
	}
	data := p.Data[hdr:end]
	if pd == nil {
		pd = &partialDatagram{
			// 64 KB is the IPv4 maximum; allocate lazily in blocks.
			payload: make([]byte, 0),
			have:    make([]bool, 8192), // 65536/8 blocks
		}
		r.partial[key] = pd
	}
	pd.lastSeen = now

	if fragEnd > len(pd.payload) {
		grown := make([]byte, fragEnd)
		copy(grown, pd.payload)
		pd.payload = grown
	}
	copy(pd.payload[off:], data)
	for b := off / 8; b <= (fragEnd-1)/8; b++ {
		pd.have[b] = true
	}
	// Everything needed from p's header is read before any Put: a Put
	// packet may be handed out and overwritten at any moment.
	if !ih.MF() {
		pd.totalLen = fragEnd
	}
	if off == 0 {
		if pd.first != nil && pd.first != p {
			ctx.Recycle(pd.first) // duplicate first fragment supersedes
		}
		pd.first = p
	} else {
		// Payload absorbed; only the first fragment's headers are still
		// needed for the rebuild.
		ctx.Recycle(p)
	}

	if pd.totalLen > 0 && pd.first != nil && r.complete(pd) {
		delete(r.partial, key)
		r.completed++
		out := r.rebuild(ctx, pd)
		ctx.Recycle(pd.first)
		pd.first = nil
		r.Out(ctx, 0, out)
	}
}

// conflicts reports whether a fragment ending at fragEnd contradicts
// pd: it runs past the end a final fragment fixed, or it is final and
// ends anywhere else, or before data already held.
func (pd *partialDatagram) conflicts(fragEnd int, more bool) bool {
	if pd.totalLen > 0 && fragEnd > pd.totalLen {
		return true
	}
	return !more && (fragEnd < len(pd.payload) || pd.totalLen > 0 && fragEnd != pd.totalLen)
}

// drop recycles a malformed fragment and counts it.
func (r *Reassembler) drop(ctx *click.Context, p *pkt.Packet) {
	r.malformed++
	ctx.Recycle(p)
}

// complete reports whether every 8-byte block up to totalLen is present.
func (r *Reassembler) complete(pd *partialDatagram) bool {
	blocks := (pd.totalLen + 7) / 8
	for b := 0; b < blocks; b++ {
		if !pd.have[b] {
			return false
		}
	}
	return true
}

// rebuild assembles the full datagram from the first fragment's headers
// and the collected payload, into a pool-drawn buffer.
func (r *Reassembler) rebuild(ctx *click.Context, pd *partialDatagram) *pkt.Packet {
	out := ctx.Alloc(pkt.EtherHdrLen + pkt.IPv4HdrLen + pd.totalLen)
	out.Arrival = pd.first.Arrival
	out.InputPort = pd.first.InputPort
	out.SeqNo = pd.first.SeqNo
	copy(out.Data[:pkt.EtherHdrLen+pkt.IPv4HdrLen], pd.first.Data[:pkt.EtherHdrLen+pkt.IPv4HdrLen])
	copy(out.Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:], pd.payload[:pd.totalLen])
	ih := out.IPv4()
	ih.SetTotalLength(uint16(pkt.IPv4HdrLen + pd.totalLen))
	ih.SetFlagsOffset(0)
	ih.UpdateChecksum()
	return out
}

// evict drops partial datagrams idle past the timeout.
func (r *Reassembler) evict(ctx *click.Context, now int64) {
	if now == 0 {
		return // untimed context: no eviction
	}
	for k, pd := range r.partial {
		if now-pd.lastSeen > r.TimeoutNs {
			delete(r.partial, k)
			r.timedOut++
			if pd.first != nil {
				ctx.Recycle(pd.first)
				pd.first = nil
			}
		}
	}
}
