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
// ESP(SPI, seq, IV, ciphertext of the whole inner IP packet).
type ESPEncap struct {
	click.Base
	Tunnel *ipsec.Tunnel
	Local  netip.Addr // outer source
	Peer   netip.Addr // outer destination
	// Recycle, when set, receives the consumed plaintext packets (the
	// element re-frames into a fresh buffer and owns the original).
	Recycle  *pkt.Pool
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

// Push encrypts and re-encapsulates, sealing straight into the outgoing
// frame after its outer header.
func (e *ESPEncap) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	ctx.Charge(hw.IPsecExtraCycles(p.Len()))
	inner := p.Data[pkt.EtherHdrLen:] // inner IP packet (tunnel mode)
	outLen := pkt.EtherHdrLen + pkt.IPv4HdrLen + ipsec.SealedLen(len(inner))
	if outLen > pkt.MaxSize+pkt.IPv4HdrLen+ipsec.ESPHdrLen+2*ipsec.BlockSize {
		// Would not fit any MTU we model; count and divert, unsealed.
		e.oversize++
		e.Out(ctx, 1, p)
		return
	}
	out := ctx.Alloc(pkt.DefaultPool, outLen)
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
	if e.Recycle != nil {
		ctx.Recycle(e.Recycle, p)
	}
	e.Out(ctx, 0, out)
}

// Oversize reports packets rejected for exceeding the modeled MTU.
func (e *ESPEncap) Oversize() uint64 { return e.oversize }

// ESPDecap reverses ESPEncap: output 0 carries the decrypted inner IP
// packet re-framed in Ethernet; packets that fail authentication or
// parsing exit output 1 unmodified.
type ESPDecap struct {
	click.Base
	Tunnel *ipsec.Tunnel
	// Recycle, when set, receives the consumed ciphertext packets.
	Recycle *pkt.Pool
	errors  uint64
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
	out := ctx.Alloc(pkt.DefaultPool, pkt.EtherHdrLen+len(inner))
	out.Arrival = p.Arrival
	out.InputPort = p.InputPort
	out.SeqNo = p.SeqNo
	eh := out.Ether()
	eh.SetSrc(p.Ether().Src())
	eh.SetDst(p.Ether().Dst())
	eh.SetEtherType(pkt.EtherTypeIPv4)
	copy(out.Data[pkt.EtherHdrLen:], inner)
	if e.Recycle != nil {
		ctx.Recycle(e.Recycle, p)
	}
	e.Out(ctx, 0, out)
}

// Errors reports failed decapsulations.
func (e *ESPDecap) Errors() uint64 { return e.errors }
