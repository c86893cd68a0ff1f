package elements

import (
	"net/netip"

	"routebricks/internal/click"
	"routebricks/internal/hw"
	"routebricks/internal/ipsec"
	"routebricks/internal/pkt"
)

// ESPEncap encrypts each packet's IP payload into an ESP tunnel toward a
// fixed peer — the paper's IPsec application ("every packet is encrypted
// using AES-128 encryption, as is typical in VPNs", §5.1). The element
// really encrypts: the output frame carries outer Ethernet + outer IPv4 +
// ESP(SPI, seq, IV, ciphertext of the whole inner IP packet). It
// re-frames into a fresh buffer and recycles the consumed plaintext
// packet through the running core's pool shard.
type ESPEncap struct {
	click.Base
	Tunnel   *ipsec.Tunnel
	Local    netip.Addr // outer source
	Peer     netip.Addr // outer destination
	oversize uint64
}

// NewESPEncap builds the encryption element.
func NewESPEncap(t *ipsec.Tunnel, local, peer netip.Addr) *ESPEncap {
	return &ESPEncap{Tunnel: t, Local: local, Peer: peer}
}

// InPorts reports 1.
func (e *ESPEncap) InPorts() int { return 1 }

// OutPorts reports 2 (sealed, oversize).
func (e *ESPEncap) OutPorts() int { return 2 }

// Push encrypts and re-encapsulates one packet.
func (e *ESPEncap) Push(ctx *click.Context, port int, p *pkt.Packet) {
	click.PushOne(e, ctx, port, p)
}

// PushBatch encrypts and re-encapsulates the batch in place: each packet
// is sealed straight into a pool packet after its outer header, which
// takes the plaintext's slot. Oversize packets divert, unsealed, to
// output 1 one at a time; the sealed ones continue as one batch.
func (e *ESPEncap) PushBatch(ctx *click.Context, _ int, b *pkt.Batch) {
	pkts := b.Packets()
	for i, p := range pkts {
		if p == nil {
			continue
		}
		ctx.Charge(hw.IPsecExtraCycles(p.Len()))
		inner := p.Data[pkt.EtherHdrLen:] // inner IP packet (tunnel mode)
		outLen := pkt.EtherHdrLen + pkt.IPv4HdrLen + ipsec.SealedLen(len(inner))
		if outLen > pkt.MaxSize+pkt.IPv4HdrLen+ipsec.ESPHdrLen+2*ipsec.BlockSize {
			// Would not fit any MTU we model; count and divert, unsealed.
			e.oversize++
			e.Out(ctx, 1, b.Take(i))
			continue
		}
		out := ctx.Alloc(outLen)
		out.Arrival = p.Arrival
		out.InputPort = p.InputPort
		out.SeqNo = p.SeqNo
		eh := out.Ether()
		eh.SetSrc(p.Ether().Src())
		eh.SetDst(p.Ether().Dst())
		eh.SetEtherType(pkt.EtherTypeIPv4)
		ih := out.IPv4()
		ih.SetVersionIHL()
		ih.SetTotalLength(uint16(outLen - pkt.EtherHdrLen))
		ih.SetTTL(64)
		ih.SetProtocol(pkt.ProtoESP)
		ih.SetSrc(e.Local)
		ih.SetDst(e.Peer)
		ih.UpdateChecksum()
		e.Tunnel.SealInto(out.Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:], inner, 4) // 4 = IP-in-IP
		ctx.Recycle(p)
		pkts[i] = out
	}
	if b.Compact() > 0 {
		e.OutBatch(ctx, 0, b)
	}
}

// Oversize reports packets rejected for exceeding the modeled MTU.
func (e *ESPEncap) Oversize() uint64 { return e.oversize }

// ESPDecap reverses ESPEncap: output 0 carries the decrypted inner IP
// packet re-framed in Ethernet, and the consumed ciphertext packet is
// recycled through the running core's pool shard; packets that fail
// authentication or parsing exit output 1 unmodified.
type ESPDecap struct {
	click.Base
	Tunnel *ipsec.Tunnel
	errors uint64
}

// NewESPDecap builds the decryption element.
func NewESPDecap(t *ipsec.Tunnel) *ESPDecap { return &ESPDecap{Tunnel: t} }

// InPorts reports 1.
func (e *ESPDecap) InPorts() int { return 1 }

// OutPorts reports 2 (inner, error).
func (e *ESPDecap) OutPorts() int { return 2 }

// Push decrypts.
func (e *ESPDecap) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	ctx.Charge(hw.IPsecExtraCycles(p.Len()))
	if len(p.Data) < pkt.EtherHdrLen+pkt.IPv4HdrLen || p.IPv4().Protocol() != pkt.ProtoESP {
		e.errors++
		e.Out(ctx, 1, p)
		return
	}
	esp := p.Data[pkt.EtherHdrLen+pkt.IPv4HdrLen:]
	inner, nextHdr, _, err := e.Tunnel.Open(esp)
	if err != nil || nextHdr != 4 {
		e.errors++
		e.Out(ctx, 1, p)
		return
	}
	out := ctx.Alloc(pkt.EtherHdrLen + len(inner))
	out.Arrival = p.Arrival
	out.InputPort = p.InputPort
	out.SeqNo = p.SeqNo
	eh := out.Ether()
	eh.SetSrc(p.Ether().Src())
	eh.SetDst(p.Ether().Dst())
	eh.SetEtherType(pkt.EtherTypeIPv4)
	copy(out.Data[pkt.EtherHdrLen:], inner)
	ctx.Recycle(p)
	e.Out(ctx, 0, out)
}

// Errors reports failed decapsulations.
func (e *ESPDecap) Errors() uint64 { return e.errors }
