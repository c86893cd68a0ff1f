//go:build linux && (amd64 || arm64)

package netio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"syscall"
	"testing"

	"routebricks/internal/pkt"
)

// numbered builds one packet per length, each stamped with its index so
// a receiver can tell order and identity apart.
func numbered(lens ...int) []*pkt.Packet {
	ps := make([]*pkt.Packet, len(lens))
	for i, ln := range lens {
		ps[i] = pkt.DefaultPool.Get(ln)
		for j := range ps[i].Data {
			ps[i].Data[j] = byte(i + j)
		}
		if ln >= 4 {
			binary.BigEndian.PutUint32(ps[i].Data, uint32(i))
		}
	}
	return ps
}

func putAll(ps []*pkt.Packet) {
	for _, p := range ps {
		if p != nil {
			pkt.DefaultPool.Put(p)
		}
	}
}

// TestPathEquivalence sends 100 equal 64 B frames to one destination
// three ways — coalesced into UDP GSO runs, one message per frame on the
// mmsg path, and through the stdlib fallback — and checks the receivers
// observe identical bytes in identical order: the paths differ only in
// cost.
func TestPathEquivalence(t *testing.T) {
	const n = 100
	paths := []struct {
		name     string
		fallback bool
		coalesce bool
	}{{"gso", false, true}, {"mmsg", false, false}, {"fallback", true, false}}
	var results [3][][]byte
	for i, path := range paths {
		rxConn, txConn := listenLoop(t), listenLoop(t)
		r := NewBatchReader(rxConn, Config{})
		w := NewBatchWriter(txConn, Config{ForceFallback: path.fallback})
		if !path.coalesce && w.tx != nil {
			w.tx.gsoCeil = 0 // every run is one frame
		}
		ps := numbered(lens(n, 64)...)
		sent, err := w.WriteBatch(ps, addrOf(rxConn))
		putAll(ps)
		if err != nil || sent != n {
			t.Fatalf("%s: WriteBatch = %d, %v; want %d", path.name, sent, err, n)
		}
		s := w.Stats()
		if s.Frames != n {
			t.Fatalf("%s: Stats.Frames = %d, want %d", path.name, s.Frames, n)
		}
		if coalesced := s.Sends < s.Frames; coalesced != path.coalesce {
			t.Fatalf("%s: %d sends for %d frames, coalesced %v, want %v", path.name, s.Sends, s.Frames, coalesced, path.coalesce)
		}
		results[i] = drain(t, rxConn, r, n)
		r.Release()
	}
	for i := 1; i < len(paths); i++ {
		for j := range results[0] {
			if !bytes.Equal(results[0][j], results[i][j]) {
				t.Fatalf("datagram %d differs between %s and %s", j, paths[0].name, paths[i].name)
			}
		}
	}
	for j, d := range results[0] {
		if len(d) != 64 || binary.BigEndian.Uint32(d) != uint32(j) {
			t.Fatalf("datagram %d: length %d, index %d", j, len(d), binary.BigEndian.Uint32(d))
		}
	}
}

// lens returns n copies of ln.
func lens(n, ln int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = ln
	}
	return out
}

// TestGSORunBoundaries scatters one batch over two destinations and
// checks where runs break: at a size increase, at a destination change,
// after a shorter frame (delivered at its own length), and never at a
// nil or empty packet, which are skipped.
func TestGSORunBoundaries(t *testing.T) {
	rx := [2]*net.UDPConn{listenLoop(t), listenLoop(t)}
	a, b := addrOf(rx[0]), addrOf(rx[1])
	w := NewBatchWriter(listenLoop(t), Config{})
	ps := numbered(64, 64, 64, 64, 80, 80, 80, 80, 40, 0, 40, 40, 40, 100)
	ps[2] = nil
	ps[9].Data = ps[9].Data[:0]
	dests := []*net.UDPAddr{a, a, a, a, a, a, b, b, b, b, b, b, a, b}
	// Runs: {0,1,3} to a at 64 B; {4,5} to a at 80 B; {6,7,8} to b, the
	// 40 B frame last; {10,11} to b at 40 B; {12} to a; {13} to b.
	const wantSends = 6
	want := [2][]int{{0, 1, 3, 4, 5, 12}, {6, 7, 8, 10, 11, 13}}
	wantLen := []int{64, 64, 64, 64, 80, 80, 80, 80, 40, 0, 40, 40, 40, 100}

	sent, err := w.WriteScatter(ps, dests)
	putAll(ps)
	if err != nil || sent != 12 {
		t.Fatalf("WriteScatter = %d, %v; want 12", sent, err)
	}
	if s := w.Stats(); s.Sends != wantSends || s.Frames != 12 {
		t.Fatalf("%d sends for %d frames, want %d for 12", s.Sends, s.Frames, wantSends)
	}
	for q := range rx {
		r := NewBatchReader(rx[q], Config{})
		got := drain(t, rx[q], r, len(want[q]))
		r.Release()
		for i, d := range got {
			idx := want[q][i]
			if len(d) != wantLen[idx] || binary.BigEndian.Uint32(d) != uint32(idx) {
				t.Fatalf("destination %d datagram %d: index %d, %d B; want index %d, %d B",
					q, i, binary.BigEndian.Uint32(d), len(d), idx, wantLen[idx])
			}
		}
	}
}

// TestGSOCaps fills a 128-frame chunk: 64 B frames coalesce at most 64
// to a message, 1500 B frames at most 43 (65,507 payload bytes), and
// every frame arrives.
func TestGSOCaps(t *testing.T) {
	for _, tc := range []struct{ size, wantSends int }{{64, 2}, {1500, 3}} {
		t.Run(fmt.Sprintf("%dB", tc.size), func(t *testing.T) {
			const n = 128
			rxConn, txConn := listenLoop(t), listenLoop(t)
			r := NewBatchReader(rxConn, Config{Batch: n})
			defer r.Release()
			w := NewBatchWriter(txConn, Config{Batch: n})
			ps := numbered(lens(n, tc.size)...)
			sent, err := w.WriteBatch(ps, addrOf(rxConn))
			putAll(ps)
			if err != nil || sent != n {
				t.Fatalf("WriteBatch = %d, %v; want %d", sent, err, n)
			}
			if s := w.Stats(); s.Sends != uint64(tc.wantSends) || s.Batches != 1 {
				t.Fatalf("%d sends in %d syscalls, want %d in 1", s.Sends, s.Batches, tc.wantSends)
			}
			if w.tx.gsoCeil <= tc.size {
				t.Fatalf("the kernel refused a run at %d B (ceiling %d)", tc.size, w.tx.gsoCeil)
			}
			for i, d := range drain(t, rxConn, r, n) {
				if len(d) != tc.size || binary.BigEndian.Uint32(d) != uint32(i) {
					t.Fatalf("datagram %d: index %d, %d B", i, binary.BigEndian.Uint32(d), len(d))
				}
			}
		})
	}
}

// TestGSORefused sends from a socket with SO_NO_CHECK, on which the
// kernel refuses UDP_SEGMENT with EINVAL but sends plain datagrams: the
// writer re-sends the refused run plainly, reports every frame sent and
// no error, and stops coalescing at that size.
func TestGSORefused(t *testing.T) {
	const n = 100
	rxConn, txConn := listenLoop(t), listenLoop(t)
	rc, err := txConn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK: %v, %v", err, serr)
	}
	r := NewBatchReader(rxConn, Config{})
	defer r.Release()
	w := NewBatchWriter(txConn, Config{})
	for round := 0; round < 2; round++ {
		ps := numbered(lens(n, 64)...)
		sent, err := w.WriteBatch(ps, addrOf(rxConn))
		putAll(ps)
		if err != nil || sent != n {
			t.Fatalf("round %d: WriteBatch = %d, %v; want %d", round, sent, err, n)
		}
		if s := w.Stats(); s.Sends != s.Frames || s.Frames != uint64(n*(round+1)) {
			t.Fatalf("round %d: %d sends for %d frames, want one per frame", round, s.Sends, s.Frames)
		}
		if w.tx.gsoCeil != 64 {
			t.Fatalf("round %d: ceiling %d after a refused 64 B run, want 64", round, w.tx.gsoCeil)
		}
		for i, d := range drain(t, rxConn, r, n) {
			if len(d) != 64 || binary.BigEndian.Uint32(d) != uint32(i) {
				t.Fatalf("round %d datagram %d: index %d, %d B", round, i, binary.BigEndian.Uint32(d), len(d))
			}
		}
	}
}
