package main

import (
	"bytes"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"routebricks/internal/cluster"
	"routebricks/internal/pcap"
	"routebricks/internal/pkt"
)

// sinkLauncher returns a launcher whose sink is a fresh loopback socket.
func sinkLauncher(t *testing.T) *launcher {
	t.Helper()
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	return &launcher{sink: sink, byNode: make(map[int]uint64)}
}

// TestCollectorCaptureError: a capture the disk refuses is the
// collector's error at stop, not a silently short file.
func TestCollectorCaptureError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	stop, err := sinkLauncher(t).collect("/dev/full")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("stop reported no error for a capture that could not be written")
	}
}

// TestCollectorCapture sends three frames to a loopback sink: the
// collector's ledger counts them by owning member, and the -pcap
// capture reads back as the same three frames, byte for byte.
func TestCollectorCapture(t *testing.T) {
	l := sinkLauncher(t)
	path := filepath.Join(t.TempDir(), "egress.pcap")
	stop, err := l.collect(path)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	var frames [][]byte
	for _, d := range []int{0, 1, 1} {
		p := pkt.New(64+32*d, netip.MustParseAddr("192.0.2.1"), cluster.NodeOwnedAddr(d, 1), 1000, 80)
		frames = append(frames, append([]byte(nil), p.Data...))
		pkt.DefaultPool.Put(p)
	}
	conn, err := net.DialUDP("udp4", nil, l.sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, fr := range frames {
		if _, err := conn.Write(fr); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		received, by := l.collectorCounts()
		if received == 3 {
			if by[0] != 1 || by[1] != 2 {
				t.Fatalf("ledger by node %v, want 1 for node 0 and 2 for node 1", by)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger reads %d after 5 s, want 3", received)
		}
		time.Sleep(time.Millisecond)
	}
	// The capture is buffered: only a clean stop makes it complete.
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}

	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	r, err := pcap.NewReader(in)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(frames) {
		t.Fatalf("capture holds %d records, want %d", len(recs), len(frames))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Data, frames[i]) || rec.OrigLen != len(frames[i]) {
			t.Fatalf("record %d differs from the frame sent", i)
		}
	}
}
