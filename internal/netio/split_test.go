package netio

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"routebricks/internal/pkt"
)

// splitAll cuts every staged datagram of s into batches of 3, so the
// cursor carries across calls, and returns the frames in order.
func splitAll(s *splitter) (frames [][]byte, truncated, malformed int) {
	b := pkt.NewBatch(3)
	for s.pending() {
		b.Reset()
		_, t, m := s.cut(b)
		truncated += t
		malformed += m
		for _, p := range b.Packets() {
			frames = append(frames, append([]byte(nil), p.Data...))
			pkt.DefaultPool.Put(p)
		}
	}
	return frames, truncated, malformed
}

// stage builds a splitter holding one received datagram d.
func stage(framing Framing, maxPkt int, d []byte, seg int) *splitter {
	s := &splitter{framing: framing, max: maxPkt, shard: pkt.DefaultPool.Shard(0),
		slots: [][]byte{d}, lens: []int{len(d)}, segs: []int{seg}}
	s.staged(1)
	return s
}

// FuzzSplit feeds the splitter arbitrary input in three modes, picked by
// the first byte; the second sets MaxPacket (8 B steps).
//   - GRO: the third byte is the gso_size, the rest one buffer.
//   - Bundles: the rest is one datagram.
//   - Round trip: the rest is up to 256 frames, each a u16 whose low 11
//     bits are its length and top bit its destination, packed by the
//     writer's bundler at BundleCap and split again.
//
// No input may panic, and frames delivered plus truncated plus
// malformed account for every frame the datagram declares (GRO: its
// segments; a bundle: its count, or one if it is no bundle). Every
// delivered frame is an exact copy of its slice of the datagram, and
// a round trip returns each destination's frames, in order.
func FuzzSplit(f *testing.F) {
	bundleOf := func(frames ...string) []byte {
		d := []byte{0xB1, 0x7D, 0, byte(len(frames))}
		for _, fr := range frames {
			d = binary.BigEndian.AppendUint16(d, uint16(len(fr)))
			d = append(d, fr...)
		}
		return d
	}
	f.Add(append([]byte{0, 200, 8}, bytes.Repeat([]byte("segment!"), 5)...))
	f.Add(append([]byte{0, 200, 8}, "segment!segment!short"...))
	f.Add(append([]byte{0, 1, 16}, bytes.Repeat([]byte{7}, 40)...)) // segments above MaxPacket
	f.Add(append([]byte{0, 200, 0}, "no cmsg: one frame"...))
	f.Add(append([]byte{1, 200}, bundleOf("one", "two", "three")...))
	f.Add(append([]byte{1, 200}, "not a bundle"...))
	f.Add(append([]byte{1, 200}, bundleOf("one", "", "three")...))         // zero length
	f.Add(append([]byte{1, 200}, bundleOf("one", "two", "three")[:12]...)) // past the end
	f.Add(append([]byte{1, 0}, bundleOf("one", "two-long")...))            // above MaxPacket
	f.Add([]byte{2, 255, 0x05, 0xDC, 0x85, 0xDC, 0x00, 0x40, 0x05, 0xDC, 0x05, 0xDC, 0x05, 0xDC, 0x05, 0xDC, 0x05, 0xDC, 0x05, 0xDC})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode, maxPkt := data[0]%3, int(data[1])*8
		data = data[2:]
		switch mode {
		case 0:
			if len(data) < 1 {
				return
			}
			seg, d := int(data[0]), data[1:]
			frames, trunc, bad := splitAll(stage(GRO, maxPkt, d, seg))
			if seg == 0 || seg > len(d) {
				seg = max(len(d), 1) // an empty buffer is one empty segment
			}
			declared := 1
			if len(d) > 0 {
				declared = (len(d) + seg - 1) / seg
			}
			if len(frames)+trunc+bad != declared || bad != 0 {
				t.Fatalf("%d frames, %d truncated, %d malformed; %d segments declared", len(frames), trunc, bad, declared)
			}
			off := 0
			for _, fr := range frames {
				for off < len(d) && min(off+seg, len(d))-off > maxPkt {
					off += seg // a truncated segment
				}
				if !bytes.Equal(fr, d[off:min(off+seg, len(d))]) {
					t.Fatalf("frame %x is not the segment at %d", fr, off)
				}
				off += seg
			}
		case 1:
			frames, trunc, bad := splitAll(stage(Bundles, maxPkt, data, 0))
			declared := 1
			if len(data) >= bundleHdr && binary.BigEndian.Uint16(data) == bundleMagic {
				declared = int(binary.BigEndian.Uint16(data[2:]))
			}
			if len(frames)+trunc+bad != declared || trunc != 0 {
				t.Fatalf("%d frames, %d truncated, %d malformed; %d frames declared", len(frames), trunc, bad, declared)
			}
			off := bundleHdr
			for _, fr := range frames {
				if int(binary.BigEndian.Uint16(data[off:])) != len(fr) || !bytes.Equal(fr, data[off+frameHdr:off+frameHdr+len(fr)]) {
					t.Fatalf("frame %x is not the frame at %d", fr, off)
				}
				off += frameHdr + len(fr)
			}
		case 2:
			dst := [2]*net.UDPAddr{{IP: net.IPv4(127, 0, 0, 1), Port: 1}, {IP: net.IPv4(127, 0, 0, 1), Port: 2}}
			var ps []*pkt.Packet
			var addrs []*net.UDPAddr
			var want [2][][]byte
			for ; len(data) >= 2 && len(ps) < 256; data = data[2:] {
				v := binary.BigEndian.Uint16(data)
				p := &pkt.Packet{Data: framePattern[len(ps) : len(ps)+int(v&0x7FF)]}
				ps = append(ps, p)
				addrs = append(addrs, dst[v>>15])
				if len(p.Data) > 0 {
					want[v>>15] = append(want[v>>15], p.Data)
				}
			}
			var bd bundler
			var got [2][][]byte
			for _, b := range bd.pack(ps, addrs, BundleCap) {
				if b.end-b.start > BundleCap {
					t.Fatalf("a %d B bundle exceeds the cap", b.end-b.start)
				}
				frames, trunc, bad := splitAll(stage(Bundles, pkt.MaxSize+600, bd.buf[b.start:b.end], 0))
				if trunc+bad != 0 || len(frames) != b.frames {
					t.Fatalf("bundle of %d frames split into %d, %d truncated, %d malformed", b.frames, len(frames), trunc, bad)
				}
				q := b.dst.Port - 1
				got[q] = append(got[q], frames...)
			}
			for q := range want {
				if len(got[q]) != len(want[q]) {
					t.Fatalf("destination %d: %d frames back, %d sent", q, len(got[q]), len(want[q]))
				}
				for i := range want[q] {
					if !bytes.Equal(got[q][i], want[q][i]) {
						t.Fatalf("destination %d frame %d: %x, want %x", q, i, got[q][i], want[q][i])
					}
				}
			}
		}
	})
}

// framePattern backs the round trip's frames: frame i is the slice
// from byte i, so frames of one length still differ.
var framePattern = func() []byte {
	b := make([]byte, 256+0x7FF)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}()
