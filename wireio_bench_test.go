package routebricks

// BenchmarkWireIO measures the kernel wire-I/O layer in isolation: how
// many datagrams per second one reader/writer pair moves across a
// loopback socket pair, per syscall path (mmsg vs the per-packet
// fallback), per batch size, and per frame-size pattern. With
// sizes=equal every frame is 128 B, so the mmsg writer sends each
// window as UDP GSO runs; with sizes=rising each frame in a window is
// 1 B longer than the last, no run forms, and the mmsg writer sends one
// message per frame — the mechanism and its bypass, side by side. The
// end-to-end wire numbers live in bench/ (wire_fwd64).
//
// The loop is lockstep windowed: one goroutine sends a window of KP
// datagrams, then reads the whole window back before sending the next.
// Loopback enqueues synchronously into the (4MB) receive buffer, so a
// bounded window cannot drop, and with no second goroutine the number
// measures syscall cost rather than scheduler behavior.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"routebricks/internal/netio"
	"routebricks/internal/pkt"
)

const wireFrameLen = 128 // demo traffic frame size (trafficgen Fixed(128)); the first frame of a rising window

func benchListenLoop(b *testing.B) *net.UDPConn {
	b.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	c.SetReadBuffer(4 << 20)
	c.SetWriteBuffer(4 << 20)
	return c
}

// wirePair is one send/receive loopback socket pair on one syscall
// path, with the reusable send window the lockstep loop flushes.
type wirePair struct {
	r      *netio.BatchReader
	w      *netio.BatchWriter
	addr   *net.UDPAddr
	window []*pkt.Packet
	rb     *pkt.Batch
	shard  *pkt.PoolShard
}

func newWirePair(b *testing.B, forceFallback bool, batch int, rising bool) *wirePair {
	rxConn, txConn := benchListenLoop(b), benchListenLoop(b)
	cfg := netio.Config{Batch: batch, ForceFallback: forceFallback}
	p := &wirePair{
		r:      netio.NewBatchReader(rxConn, cfg),
		w:      netio.NewBatchWriter(txConn, cfg),
		addr:   rxConn.LocalAddr().(*net.UDPAddr),
		window: make([]*pkt.Packet, batch),
		rb:     pkt.NewBatch(batch),
		shard:  pkt.DefaultPool.Shard(0),
	}
	for i := range p.window {
		size := wireFrameLen
		if rising {
			size += i
		}
		p.window[i] = pkt.DefaultPool.Get(size)
	}
	b.Cleanup(func() {
		p.r.Release()
		for _, pk := range p.window {
			pkt.DefaultPool.Put(pk)
		}
	})
	rxConn.SetReadDeadline(time.Now().Add(5 * time.Minute))
	return p
}

// roundTrip sends win datagrams and reads them all back.
func (p *wirePair) roundTrip(b *testing.B, win int) {
	n, err := p.w.WriteBatch(p.window[:win], p.addr)
	if err != nil {
		b.Fatal(err)
	}
	for got := 0; got < n; {
		p.rb.Reset()
		k, err := p.r.ReadBatch(p.rb)
		if err != nil {
			b.Fatal(err)
		}
		p.shard.PutBatch(p.rb)
		got += k
	}
}

func benchWireIO(b *testing.B, forceFallback bool, batch int, rising bool) {
	p := newWirePair(b, forceFallback, batch, rising)
	var window int64
	for _, pk := range p.window {
		window += int64(len(pk.Data))
	}
	b.SetBytes(window / int64(batch))
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		win := batch
		if left := b.N - sent; left < win {
			win = left
		}
		p.roundTrip(b, win)
		sent += win
	}
	b.StopTimer()
	// Datagrams through the round trip per second — each counted b.N
	// frame was both sent and received.
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
	// Kernel crossings per datagram (read + write syscalls over b.N
	// round-tripped frames): the quantity batching actually amortizes.
	// On hosts where syscall entry is expensive (KPTI/retpoline) this is
	// what the Mpps ratio tracks; on paravirtualized hosts the loopback
	// delivery path dominates and this metric still records the 2/batch
	// vs 2/1 crossing reduction.
	if b.N > 0 {
		rs, ws := p.r.Stats(), p.w.Stats()
		b.ReportMetric(float64(rs.Batches+ws.Batches)/float64(b.N), "sys/pkt")
		// Datagrams per message the writer handed the kernel: the UDP
		// GSO run length, 1 wherever nothing coalesced.
		b.ReportMetric(float64(ws.Frames)/float64(ws.Sends), "segs/send")
	}
}

func BenchmarkWireIO(b *testing.B) {
	paths := []struct {
		name  string
		force bool
	}{{"fallback", true}}
	if netio.Available() {
		paths = append(paths, struct {
			name  string
			force bool
		}{"mmsg", false})
	}
	for _, path := range paths {
		for _, batch := range []int{1, 8, 32} {
			for _, sizes := range []string{"equal", "rising"} {
				b.Run(fmt.Sprintf("path=%s/batch=%d/sizes=%s", path.name, batch, sizes), func(b *testing.B) {
					benchWireIO(b, path.force, batch, sizes == "rising")
				})
			}
		}
	}
}
