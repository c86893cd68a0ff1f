package netio

// Coalesced receive and bundles. A reader in a coalesced framing
// receives whole datagrams into a few 64 KiB staging slots and cuts
// each into pool packets, one copy per frame; see docs/netio.md.

import (
	"encoding/binary"
	"net"

	"routebricks/internal/pkt"
)

// Framing is how a BatchReader cuts a received datagram into frames.
type Framing int

const (
	// Datagrams: every datagram is one frame, received straight into a
	// pool packet with no copy. The default.
	Datagrams Framing = iota

	// GRO sets UDP_GRO on the socket, so the kernel may hand a run of
	// equal-length datagrams over as one buffer with its segment size
	// (gso_size) in a cmsg; the reader cuts the buffer at that size, the
	// last segment possibly shorter. A buffer without the cmsg is one
	// frame. Where the kernel refuses the option, or on the fallback
	// path, the reader stays on Datagrams.
	GRO

	// Bundles: every datagram is a bundle written by
	// BatchWriter.WriteBundles.
	Bundles
)

// A bundle is [u16 bundleMagic][u16 count] followed by count frames,
// each [u16 len][len bytes], big-endian.
const (
	// BundleCap is the largest bundle WriteBundles builds: the UDP
	// payload of a 9,000 B jumbo-frame internal link. A frame too long
	// to share a bundle under the cap travels alone in a longer one.
	BundleCap = 8972

	bundleMagic = 0xB17D
	bundleHdr   = 4
	frameHdr    = 2

	// maxBundled is the longest frame a bundle can carry: one UDP
	// datagram's payload (65,507 B) less the two headers.
	maxBundled = 65507 - bundleHdr - frameHdr

	// coSlots is the staging slots a coalesced reader receives into per
	// syscall, each coSlotSize bytes: room for any UDP datagram.
	coSlots    = 8
	coSlotSize = 64 << 10
)

// splitter holds the datagrams one receive staged and cuts them into
// pool packets across as many ReadBatch calls as their frames need:
// cur and off are the cursor, left the frames the bundle at the cursor
// still declares.
type splitter struct {
	framing Framing
	max     int
	shard   *pkt.PoolShard
	slots   [][]byte // staging, coSlotSize each
	lens    []int    // bytes received into each slot; -1 if the kernel clipped it
	segs    []int    // GRO segment size of each slot, 0 for a plain datagram
	n       int      // slots the last receive filled
	cur     int
	off     int
	left    int
}

func newSplitter(cfg Config, slots int) *splitter {
	s := &splitter{
		framing: cfg.Framing, max: cfg.MaxPacket, shard: cfg.Shard,
		slots: make([][]byte, slots), lens: make([]int, slots), segs: make([]int, slots),
	}
	slab := make([]byte, slots*coSlotSize)
	for i := range s.slots {
		s.slots[i] = slab[i*coSlotSize : (i+1)*coSlotSize : (i+1)*coSlotSize]
	}
	return s
}

// pending reports whether staged frames wait to be cut.
func (s *splitter) pending() bool { return s.cur < s.n }

// staged resets the cursor over the n slots a receive just filled.
func (s *splitter) staged(n int) {
	s.n, s.cur, s.off, s.left = n, 0, 0, 0
}

// next moves the cursor to the following slot.
func (s *splitter) next() {
	s.cur++
	s.off, s.left = 0, 0
}

// cut appends frames from the cursor on to b until b is full or every
// staged datagram is cut. It returns the frames appended, those dropped
// as longer than max (truncated), and those dropped with a bundle that
// failed its checks (malformed).
func (s *splitter) cut(b *pkt.Batch) (n, truncated, malformed int) {
	for s.pending() && !b.Full() {
		d := s.slots[s.cur]
		ln := s.lens[s.cur]
		if ln < 0 { // clipped by the kernel: what it held is unknown
			truncated++
			s.next()
			continue
		}
		d = d[:ln]
		if s.framing == Bundles {
			if s.off == 0 {
				if len(d) < bundleHdr || binary.BigEndian.Uint16(d) != bundleMagic {
					malformed++ // not a bundle: one datagram, one frame
					s.next()
					continue
				}
				s.left, s.off = int(binary.BigEndian.Uint16(d[2:])), bundleHdr
			}
			if s.left == 0 {
				s.next()
				continue
			}
			fl := 0
			if s.off+frameHdr <= len(d) {
				fl = int(binary.BigEndian.Uint16(d[s.off:]))
			}
			start := s.off + frameHdr
			if fl == 0 || start+fl > len(d) || fl > s.max {
				malformed += s.left
				s.next()
				continue
			}
			b.Add(s.copyOut(d[start : start+fl]))
			n++
			s.off = start + fl
			if s.left--; s.left == 0 {
				s.next()
			}
			continue
		}
		seg := s.segs[s.cur]
		if seg <= 0 || seg > ln {
			seg = ln
		}
		end := min(s.off+seg, ln)
		if end-s.off > s.max {
			truncated++
		} else {
			b.Add(s.copyOut(d[s.off:end]))
			n++
		}
		if s.off = end; s.off >= ln {
			s.next()
		}
	}
	return n, truncated, malformed
}

// copyOut copies one frame into a packet from the shard.
func (s *splitter) copyOut(f []byte) *pkt.Packet {
	p := s.shard.GetRaw(len(f))
	copy(p.Data, f)
	return p
}

// bundle is one bundle packed from a flush: buf[start:end] for dst,
// carrying frames frames.
type bundle struct {
	start, end int
	frames     int
	dst        *net.UDPAddr
}

// bundler packs a flush's frames into bundles. Each destination's
// frames go in the order given into as few bundles as the cap allows,
// and its bundles follow one another, so each destination receives its
// frames in order.
type bundler struct {
	buf     []byte
	bundles []bundle
	dsts    []*net.UDPAddr
}

// pack lays out every non-empty frame of ps for addrs[i] as bundles of
// at most limit bytes. A frame above maxBundled is left out: no
// datagram can carry it.
func (bd *bundler) pack(ps []*pkt.Packet, addrs []*net.UDPAddr, limit int) []bundle {
	bd.buf, bd.bundles, bd.dsts = bd.buf[:0], bd.bundles[:0], bd.dsts[:0]
	for i, p := range ps {
		if p != nil && len(p.Data) > 0 && !hasAddr(bd.dsts, addrs[i]) {
			bd.dsts = append(bd.dsts, addrs[i])
		}
	}
	for _, dst := range bd.dsts {
		open := -1
		for i, p := range ps {
			if p == nil || len(p.Data) == 0 || len(p.Data) > maxBundled || !sameAddr(addrs[i], dst) {
				continue
			}
			if open >= 0 && len(bd.buf)+frameHdr+len(p.Data)-bd.bundles[open].start > limit {
				bd.close(open)
				open = -1
			}
			if open < 0 {
				open = len(bd.bundles)
				bd.bundles = append(bd.bundles, bundle{start: len(bd.buf), dst: dst})
				bd.buf = binary.BigEndian.AppendUint16(bd.buf, bundleMagic)
				bd.buf = append(bd.buf, 0, 0)
			}
			bd.buf = binary.BigEndian.AppendUint16(bd.buf, uint16(len(p.Data)))
			bd.buf = append(bd.buf, p.Data...)
			bd.bundles[open].frames++
		}
		if open >= 0 {
			bd.close(open)
		}
	}
	return bd.bundles
}

// close writes bundle i's frame count and end.
func (bd *bundler) close(i int) {
	b := &bd.bundles[i]
	b.end = len(bd.buf)
	binary.BigEndian.PutUint16(bd.buf[b.start+2:], uint16(b.frames))
}

func sameAddr(a, b *net.UDPAddr) bool {
	return a == b || a.Port == b.Port && a.IP.Equal(b.IP)
}

func hasAddr(as []*net.UDPAddr, a *net.UDPAddr) bool {
	for _, x := range as {
		if sameAddr(x, a) {
			return true
		}
	}
	return false
}
