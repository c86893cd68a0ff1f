//go:build linux && (amd64 || arm64)

package netio

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"routebricks/internal/pkt"
)

// groReader builds a GRO reader on conn, skipping the test where the
// kernel refuses UDP_GRO.
func groReader(t *testing.T, conn *net.UDPConn, cfg Config) *BatchReader {
	t.Helper()
	cfg.Framing = GRO
	r := NewBatchReader(conn, cfg)
	if r.Framing() != GRO {
		t.Skip("the kernel refuses UDP_GRO")
	}
	t.Cleanup(r.Release)
	return r
}

// TestGROPathEquivalence sends the same GSO runs (three runs of 40 B to
// 100 B frames, one ending in a shorter frame) to a GRO reader, a plain
// mmsg reader and a fallback reader: all three deliver the same frames,
// byte for byte and in order, and only the GRO reader received fewer
// datagrams than frames.
func TestGROPathEquivalence(t *testing.T) {
	sizes := append(append(lens(40, 64), lens(30, 100)...), append(lens(20, 80), 33)...)
	readers := []struct {
		name string
		cfg  Config
	}{{"gro", Config{Framing: GRO}}, {"mmsg", Config{}}, {"fallback", Config{ForceFallback: true}}}
	var results [3][][]byte
	for i, rd := range readers {
		rxConn, txConn := listenLoop(t), listenLoop(t)
		r := NewBatchReader(rxConn, rd.cfg)
		if rd.cfg.Framing == GRO {
			r = groReader(t, rxConn, rd.cfg)
		}
		w := NewBatchWriter(txConn, Config{Batch: 128})
		ps := numbered(sizes...)
		sent, err := w.WriteBatch(ps, addrOf(rxConn))
		putAll(ps)
		if err != nil || sent != len(sizes) {
			t.Fatalf("%s: WriteBatch = %d, %v; want %d", rd.name, sent, err, len(sizes))
		}
		if s := w.Stats(); s.Sends != 3 {
			t.Fatalf("%s: %d sends, want 3 GSO runs", rd.name, s.Sends)
		}
		results[i] = drain(t, rxConn, r, len(sizes))
		s := r.Stats()
		if s.Frames != uint64(len(sizes)) {
			t.Fatalf("%s: Stats.Frames = %d, want %d", rd.name, s.Frames, len(sizes))
		}
		if coalesced := s.Coalesced > 0 && s.Coalesced < s.Frames; coalesced != (rd.cfg.Framing == GRO) {
			t.Fatalf("%s: %d frames from %d coalesced datagrams", rd.name, s.Frames, s.Coalesced)
		}
	}
	for j, d := range results[0] {
		if len(d) != sizes[j] || binary.BigEndian.Uint32(d) != uint32(j) {
			t.Fatalf("gro frame %d: index %d, %d B; want index %d, %d B", j, binary.BigEndian.Uint32(d), len(d), j, sizes[j])
		}
		for i := 1; i < len(readers); i++ {
			if !bytes.Equal(d, results[i][j]) {
				t.Fatalf("frame %d differs between gro and %s", j, readers[i].name)
			}
		}
	}
}

// TestGROCursor receives one GRO buffer of 20 frames into batches of 8:
// the first ReadBatch takes one syscall, and the frames it could not
// hold come back from the next two calls without one, even with the
// read deadline already past.
func TestGROCursor(t *testing.T) {
	rxConn, txConn := listenLoop(t), listenLoop(t)
	r := groReader(t, rxConn, Config{})
	w := NewBatchWriter(txConn, Config{})
	ps := numbered(lens(20, 64)...)
	if sent, err := w.WriteBatch(ps, addrOf(rxConn)); err != nil || sent != 20 {
		t.Fatalf("WriteBatch = %d, %v", sent, err)
	}
	putAll(ps)
	rxConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	b := pkt.NewBatch(8)
	var got []int
	for _, want := range []int{8, 8, 4} {
		b.Reset()
		n, err := r.ReadBatch(b)
		if err != nil || n != want {
			t.Fatalf("ReadBatch = %d, %v; want %d", n, err, want)
		}
		for _, p := range b.Packets() {
			got = append(got, int(binary.BigEndian.Uint32(p.Data)))
			pkt.DefaultPool.Put(p)
		}
		rxConn.SetReadDeadline(time.Now().Add(-time.Second)) // a syscall would fail now
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("frame %d carries index %d", i, idx)
		}
	}
	if s := r.Stats(); s.Batches != 1 || s.Coalesced != 1 || s.Frames != 20 {
		t.Fatalf("stats %+v, want 1 syscall, 1 buffer, 20 frames", s)
	}
	b.Reset()
	if _, err := r.ReadBatch(b); err == nil {
		t.Fatal("ReadBatch past the cursor returned without data or deadline")
	}
}

// TestGROTruncation sends a GSO run of 256 B frames to a GRO reader
// with MaxPacket 128, then a valid frame: each long segment counts as
// truncated and only the valid frame arrives.
func TestGROTruncation(t *testing.T) {
	rxConn, txConn := listenLoop(t), listenLoop(t)
	r := groReader(t, rxConn, Config{MaxPacket: 128})
	w := NewBatchWriter(txConn, Config{})
	ps := numbered(256, 256, 256, 256)
	if sent, err := w.WriteBatch(ps, addrOf(rxConn)); err != nil || sent != 4 {
		t.Fatalf("WriteBatch = %d, %v", sent, err)
	}
	putAll(ps)
	valid := []byte("valid datagram after the long run")
	if _, err := txConn.WriteToUDP(valid, addrOf(rxConn)); err != nil {
		t.Fatal(err)
	}
	got := drain(t, rxConn, r, 1)
	if len(got) != 1 || !bytes.Equal(got[0], valid) {
		t.Fatalf("delivered %q, want only the valid datagram", got)
	}
	if s := r.Stats(); s.Truncated != 4 || s.Frames != 1 {
		t.Fatalf("stats %+v, want 4 truncated and 1 frame", s)
	}
}

// TestBundleRoundTrip scatters one flush over two destinations in
// bundles, on the mmsg path and on the fallback: 12 frames of 1,500 B
// to A spill past BundleCap into three bundles (5, 5, 2), and mixed
// sizes to B share one. Each destination receives its frames in order
// and intact, and the counters count frames, bundles and datagrams.
func TestBundleRoundTrip(t *testing.T) {
	for _, fallback := range []bool{false, true} {
		name := "mmsg"
		if fallback {
			name = "fallback"
		}
		t.Run(name, func(t *testing.T) {
			rx := [2]*net.UDPConn{listenLoop(t), listenLoop(t)}
			a, b := addrOf(rx[0]), addrOf(rx[1])
			cfg := Config{ForceFallback: fallback}
			w := NewBatchWriter(listenLoop(t), cfg)
			var sizes []int
			var dests []*net.UDPAddr
			for i := 0; i < 12; i++ {
				sizes = append(sizes, 1500, 64+i*40)
				dests = append(dests, a, b)
			}
			ps := numbered(sizes...)
			sent, err := w.WriteBundles(ps, dests)
			putAll(ps)
			if err != nil || sent != len(ps) {
				t.Fatalf("WriteBundles = %d, %v; want %d", sent, err, len(ps))
			}
			if s := w.Stats(); s.Bundles != 4 || s.Bundled != 24 || s.Frames != 24 {
				t.Fatalf("writer stats %+v, want 4 bundles carrying 24 frames", s)
			}
			wantBundles := [2]uint64{3, 1}
			for q := range rx {
				cfg.Framing = Bundles
				r := NewBatchReader(rx[q], cfg)
				got := drain(t, rx[q], r, 12)
				r.Release()
				for i, d := range got {
					idx := 2*i + q
					if len(d) != sizes[idx] || binary.BigEndian.Uint32(d) != uint32(idx) {
						t.Fatalf("destination %d frame %d: index %d, %d B; want index %d, %d B",
							q, i, binary.BigEndian.Uint32(d), len(d), idx, sizes[idx])
					}
				}
				if s := r.Stats(); s.Coalesced != wantBundles[q] || s.Frames != 12 || s.Malformed != 0 {
					t.Fatalf("destination %d reader stats %+v, want %d bundles, 12 frames", q, s, wantBundles[q])
				}
			}
		})
	}
}

// TestBundleMalformed sends a bundle reader a plain datagram and a
// bundle whose second of three frames runs past its end: the reader
// delivers the first frame, and counts the plain datagram and the two
// frames the bad bundle still declared as malformed.
func TestBundleMalformed(t *testing.T) {
	rxConn, txConn := listenLoop(t), listenLoop(t)
	r := NewBatchReader(rxConn, Config{Framing: Bundles})
	defer r.Release()
	bad := []byte{0xB1, 0x7D, 0, 3, 0, 4, 'g', 'o', 'o', 'd', 0, 200, 'x'}
	for _, d := range [][]byte{[]byte("plain datagram"), bad} {
		if _, err := txConn.WriteToUDP(d, addrOf(rxConn)); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(t, rxConn, r, 1)
	if string(got[0]) != "good" {
		t.Fatalf("delivered %q, want the bundle's first frame", got[0])
	}
	if s := r.Stats(); s.Malformed != 3 || s.Frames != 1 || s.Coalesced != 2 {
		t.Fatalf("stats %+v, want 3 malformed, 1 frame from 2 datagrams", s)
	}
}

// TestFramingFallback: the fallback path cannot set UDP_GRO, so a GRO
// reader there reads plain datagrams and says so.
func TestFramingFallback(t *testing.T) {
	r := NewBatchReader(listenLoop(t), Config{Framing: GRO, ForceFallback: true})
	if r.Framing() != Datagrams || r.Mode() != "fallback" {
		t.Fatalf("framing %d, mode %s; want Datagrams, fallback", r.Framing(), r.Mode())
	}
}
