package netio

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"routebricks/internal/pkt"
)

// listenLoop binds an ephemeral loopback UDP socket.
func listenLoop(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetReadBuffer(4 << 20)
	return c
}

func addrOf(c *net.UDPConn) *net.UDPAddr { return c.LocalAddr().(*net.UDPAddr) }

// drain reads datagrams off r until want arrive or the deadline hits,
// returning payloads in arrival order.
func drain(t *testing.T, conn *net.UDPConn, r *BatchReader, want int) [][]byte {
	t.Helper()
	var got [][]byte
	batch := pkt.NewBatch(32)
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < want {
		conn.SetReadDeadline(deadline)
		batch.Reset()
		if _, err := r.ReadBatch(batch); err != nil {
			t.Fatalf("ReadBatch after %d/%d: %v", len(got), want, err)
		}
		for _, p := range batch.Packets() {
			got = append(got, append([]byte(nil), p.Data...))
			pkt.DefaultPool.Put(p)
		}
	}
	return got
}

// roundTrip pushes n numbered datagrams through a writer/reader pair on
// the given paths and checks every byte arrives, in order (loopback UDP
// between one socket pair preserves order).
func roundTrip(t *testing.T, forceFallback bool, wantMode string, n int) {
	t.Helper()
	rxConn, txConn := listenLoop(t), listenLoop(t)
	cfg := Config{ForceFallback: forceFallback}
	r := NewBatchReader(rxConn, cfg)
	defer r.Release()
	w := NewBatchWriter(txConn, cfg)
	if r.Mode() != wantMode || w.Mode() != wantMode {
		t.Fatalf("mode = %s/%s, want %s", r.Mode(), w.Mode(), wantMode)
	}

	ps := make([]*pkt.Packet, n)
	for i := range ps {
		ps[i] = pkt.DefaultPool.Get(64)
		copy(ps[i].Data, fmt.Sprintf("datagram-%04d", i))
	}
	sent, err := w.WriteBatch(ps, addrOf(rxConn))
	if err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v; want %d", sent, err, n)
	}
	for _, p := range ps {
		pkt.DefaultPool.Put(p)
	}

	got := drain(t, rxConn, r, n)
	for i, d := range got {
		want := fmt.Sprintf("datagram-%04d", i)
		if len(d) != 64 || string(d[:len(want)]) != want {
			t.Fatalf("datagram %d: got %q (len %d), want prefix %q", i, d[:13], len(d), want)
		}
	}

	rs, ws := r.Stats(), w.Stats()
	if rs.Frames != uint64(n) || ws.Frames != uint64(n) {
		t.Fatalf("stats frames rx=%d tx=%d, want %d", rs.Frames, ws.Frames, n)
	}
	if rs.Batches == 0 || ws.Batches == 0 {
		t.Fatalf("stats batches rx=%d tx=%d, want > 0", rs.Batches, ws.Batches)
	}
	if wantMode == "mmsg" && ws.Batches >= uint64(n) {
		t.Fatalf("mmsg writer used %d syscalls for %d datagrams — no batching", ws.Batches, n)
	}
}

func TestRoundTripFallback(t *testing.T) {
	roundTrip(t, true, "fallback", 100)
}

func TestRoundTripMMsg(t *testing.T) {
	if !Available() {
		t.Skip("mmsg fast path not available on this platform")
	}
	roundTrip(t, false, "mmsg", 100)
}

// TestTruncation sends a datagram longer than MaxPacket, then a valid
// one. The mmsg path drops the long one, counting it in
// Stats.Truncated, and delivers the valid one intact; the fallback
// cannot detect the clip and delivers the first MaxPacket bytes.
func TestTruncation(t *testing.T) {
	for _, force := range []bool{false, true} {
		if !force && !Available() {
			continue
		}
		name := "mmsg"
		if force {
			name = "fallback"
		}
		t.Run(name, func(t *testing.T) {
			rxConn, txConn := listenLoop(t), listenLoop(t)
			r := NewBatchReader(rxConn, Config{ForceFallback: force, MaxPacket: 128})
			defer r.Release()

			big := make([]byte, 256)
			for i := range big {
				big[i] = byte(i)
			}
			valid := []byte("valid datagram after the long one")
			for _, d := range [][]byte{big, valid} {
				if _, err := txConn.WriteToUDP(d, addrOf(rxConn)); err != nil {
					t.Fatal(err)
				}
			}
			if force {
				got := drain(t, rxConn, r, 2)
				if !bytes.Equal(got[0], big[:128]) || !bytes.Equal(got[1], valid) {
					t.Fatalf("fallback delivered %d+%d bytes, want the 128-byte clip then the valid datagram",
						len(got[0]), len(got[1]))
				}
				return
			}
			got := drain(t, rxConn, r, 1)
			if len(got) != 1 || !bytes.Equal(got[0], valid) {
				t.Fatalf("mmsg delivered %q, want only the valid datagram", got)
			}
			if s := r.Stats(); s.Truncated != 1 || s.Frames != 1 {
				t.Fatalf("mmsg stats %+v, want 1 truncated and 1 frame", s)
			}
		})
	}
}

// TestWriteScatter sends one batch to two destinations in alternation —
// per-message addresses, one logical flush.
func TestWriteScatter(t *testing.T) {
	rx := [2]*net.UDPConn{listenLoop(t), listenLoop(t)}
	txConn := listenLoop(t)
	w := NewBatchWriter(txConn, Config{})

	const n = 32
	ps := make([]*pkt.Packet, n)
	dests := make([]*net.UDPAddr, n)
	for i := range ps {
		ps[i] = pkt.DefaultPool.Get(64)
		copy(ps[i].Data, fmt.Sprintf("scatter-%04d", i))
		dests[i] = addrOf(rx[i%2])
	}
	if sent, err := w.WriteScatter(ps, dests); err != nil || sent != n {
		t.Fatalf("WriteScatter = %d, %v; want %d", sent, err, n)
	}
	for _, p := range ps {
		pkt.DefaultPool.Put(p)
	}
	for q := 0; q < 2; q++ {
		r := NewBatchReader(rx[q], Config{})
		got := drain(t, rx[q], r, n/2)
		for i, d := range got {
			want := fmt.Sprintf("scatter-%04d", 2*i+q)
			if string(d[:len(want)]) != want {
				t.Fatalf("queue %d datagram %d: got %q, want %q", q, i, d[:12], want)
			}
		}
		r.Release()
	}
}

// TestWriteScatterLengthMismatch rejects a dests slice that does not
// pair 1:1 with the packets.
func TestWriteScatterLengthMismatch(t *testing.T) {
	w := NewBatchWriter(listenLoop(t), Config{})
	p := pkt.DefaultPool.Get(64)
	defer pkt.DefaultPool.Put(p)
	if _, err := w.WriteScatter([]*pkt.Packet{p}, nil); err == nil {
		t.Fatal("WriteScatter accepted 1 packet with 0 addresses")
	}
}

// TestListenReusePort checks the multi-queue contract: N sockets share
// one port, every datagram lands on exactly one of them, and one
// 4-tuple's datagrams all land on the same queue (kernel flow hashing
// is consistent per connection).
func TestListenReusePort(t *testing.T) {
	conns, err := ListenReusePort("udp4", "127.0.0.1:0", 2)
	if err == ErrNotSupported {
		t.Skip("SO_REUSEPORT multi-queue not supported on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		defer c.Close()
	}
	if len(conns) != 2 {
		t.Fatalf("got %d conns, want 2", len(conns))
	}
	if p0, p1 := addrOf(conns[0]).Port, addrOf(conns[1]).Port; p0 != p1 {
		t.Fatalf("queues on different ports: %d vs %d", p0, p1)
	}

	// One connected sender = one 4-tuple: all its datagrams must hash to
	// the same queue.
	tx, err := net.DialUDP("udp4", nil, addrOf(conns[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := tx.Write([]byte(fmt.Sprintf("reuse-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	counts := [2]int{}
	buf := make([]byte, 64)
	for q, c := range conns {
		for {
			c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			if _, _, err := c.ReadFromUDP(buf); err != nil {
				break
			}
			counts[q]++
		}
	}
	if counts[0]+counts[1] != n {
		t.Fatalf("received %d+%d datagrams, want %d total", counts[0], counts[1], n)
	}
	if counts[0] != 0 && counts[1] != 0 {
		t.Fatalf("one 4-tuple split across queues (%d/%d) — kernel steering should be consistent", counts[0], counts[1])
	}
}

// TestListenReusePortSingle degenerates to one plain socket everywhere.
func TestListenReusePortSingle(t *testing.T) {
	conns, err := ListenReusePort("udp4", "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer conns[0].Close()
	if len(conns) != 1 {
		t.Fatalf("got %d conns, want 1", len(conns))
	}
}

// TestReaderDeadlineWake proves the shutdown contract rbrouter relies
// on: a blocked ReadBatch wakes when the deadline is poked.
func TestReaderDeadlineWake(t *testing.T) {
	conn := listenLoop(t)
	r := NewBatchReader(conn, Config{})
	defer r.Release()
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	batch := pkt.NewBatch(8)
	start := time.Now()
	if _, err := r.ReadBatch(batch); err == nil {
		t.Fatal("ReadBatch returned without data or deadline")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline wake took %v", elapsed)
	}
}
