package main

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/cluster"
	"routebricks/internal/pkt"
)

// wireCluster starts an n-node in-process cluster on loopback sockets,
// every node's egress aimed at the returned collector. The nodes shut
// down at cleanup.
func wireCluster(t *testing.T, n, cores int, kind click.PlanKind) ([]*node, *net.UDPConn) {
	t.Helper()
	fib, err := routebricks.NewFIB(cluster.SeedRoutes(n)...)
	if err != nil {
		t.Fatal(err)
	}
	collector, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { collector.Close() })
	collector.SetReadBuffer(4 << 20)
	nodes := make([]*node, n)
	for i := range nodes {
		if nodes[i], err = newNode(i, n, fib, defaultConfig, true, cores, kind, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, nd := range nodes {
		nd.sink = collector.LocalAddr().(*net.UDPAddr)
		for j, peer := range nodes {
			nd.peers[j] = peer.int_.LocalAddr().(*net.UDPAddr)
		}
	}
	for _, nd := range nodes {
		if err := nd.start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.shutdown)
	}
	return nodes, collector
}

// frame builds one 128-byte IPv4/UDP frame for dst; flow picks the
// source port, and ttl 1 makes it expire at DecIPTTL.
func frame(dst netip.Addr, flow int, ttl uint8) []byte {
	p := pkt.New(128, netip.MustParseAddr("192.0.2.1"), dst, uint16(1000+flow), 80)
	p.IPv4().SetTTL(ttl)
	p.IPv4().UpdateChecksum()
	return append([]byte(nil), p.Data...)
}

// sendTo writes every frame to addr from one socket.
func sendTo(t *testing.T, addr net.Addr, frames ...[]byte) {
	t.Helper()
	conn, err := net.DialUDP("udp4", nil, addr.(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, f := range frames {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
}

// framesFor builds count routable frames into node d's prefix.
func framesFor(d, count int) [][]byte {
	out := make([][]byte, count)
	for i := range out {
		out[i] = frame(netip.AddrFrom4([4]byte{10, byte(d), 0, byte(1 + i%200)}), i, 64)
	}
	return out
}

// collect reads frames off the collector until want have arrived or
// nothing arrives for a second, and returns how many came from each
// UDP source port.
func collect(t *testing.T, c *net.UDPConn, want int) map[int]int {
	t.Helper()
	from := make(map[int]int)
	buf := make([]byte, 2048)
	for got := 0; got < want; got++ {
		c.SetReadDeadline(time.Now().Add(time.Second))
		_, addr, err := c.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("collected %d of %d frames: %v", got, want, err)
		}
		from[addr.Port]++
	}
	return from
}

// eventually polls cond until it holds or ten seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func port(nd *node) int { return nd.exts[0].LocalAddr().(*net.UDPAddr).Port }

// TestWireRunToCompletion checks the run-to-completion contract on a
// 2-node cluster, with frames for both prefixes sent into node 0 from
// one socket.
func TestWireRunToCompletion(t *testing.T) {
	const k = 64

	// Every frame is delivered, from the ext port of the node owning its
	// prefix; the counters split exactly by prefix; nothing sits in a
	// ring; nothing polls empty, because no loop polls at all; and, after
	// shutdown, every received frame is accounted for.
	t.Run("parallel", func(t *testing.T) {
		nodes, collector := wireCluster(t, 2, 1, click.Parallel)
		sendTo(t, nodes[0].exts[0].LocalAddr(), append(framesFor(0, k), framesFor(1, k)...)...)
		from := collect(t, collector, 2*k)
		if from[port(nodes[0])] != k || from[port(nodes[1])] != k {
			t.Fatalf("delivered by source port %v, want %d from each ext port", from, k)
		}
		// Counters tick before the frames are written, so they are final
		// once the collector has everything.
		if e0, e1 := nodes[0].egressed.Load(), nodes[1].egressed.Load(); e0 != k || e1 != k {
			t.Fatalf("egressed = %d, %d, want %d each", e0, e1, k)
		}
		if f0, f1 := nodes[0].forwarded.Load(), nodes[1].forwarded.Load(); f0 != k || f1 != 0 {
			t.Fatalf("forwarded = %d, %d, want %d, 0", f0, f1, k)
		}
		for _, nd := range nodes {
			if q := nd.ingress.Queued(); q != 0 {
				t.Fatalf("node %d: %d packets queued in the ingress plan", nd.id, q)
			}
			for _, cs := range nd.ingress.Snapshot().CoreStats {
				if cs.Empty != 0 {
					t.Fatalf("node %d core %d: %d empty polls of %d", nd.id, cs.Core, cs.Empty, cs.Polls)
				}
			}
		}
		if p := nodes[0].ingress.Snapshot().CoreStats[0].Packets; p != 2*k {
			t.Fatalf("node 0 ingress core credited %d packets, want %d", p, 2*k)
		}

		// The slow paths: a runt, an unroutable frame, an expiring one,
		// and on the mesh port a frame whose MAC names no member.
		sendTo(t, nodes[0].exts[0].LocalAddr(), make([]byte, 10),
			frame(netip.MustParseAddr("172.16.0.1"), 0, 64),
			frame(netip.MustParseAddr("10.1.0.1"), 0, 1))
		stray := frame(netip.MustParseAddr("10.1.0.1"), 0, 64)
		mac := pkt.NodeMAC(7)
		copy(stray, mac[:])
		sendTo(t, nodes[1].int_.LocalAddr(), stray)
		eventually(t, "slow-path counters", func() bool {
			return nodes[0].hdrDrops.Load() == 2 && nodes[0].routeMiss.Load() == 1 && nodes[1].hdrDrops.Load() == 1
		})
		for _, nd := range nodes {
			nd.shutdown()
			rx := nd.wireSnapshot().RxFrames
			sum := nd.forwarded.Load() + nd.egressed.Load() + nd.hdrDrops.Load() + nd.routeMiss.Load() + nd.txDrained.Load()
			if rx != sum {
				t.Errorf("node %d: rx %d != forwarded+egressed+header_drops+route_misses+tx_drained %d", nd.id, rx, sum)
			}
		}
	})

	// A pipelined node runs its first stage on the socket loops
	// (RunBatch) and the rest on the started Runner, and still delivers
	// everything.
	t.Run("pipelined", func(t *testing.T) {
		nodes, collector := wireCluster(t, 2, 2, click.Pipelined)
		if got := nodes[0].ingress.Placement(); got != click.Pipelined {
			t.Fatalf("placement %s, want pipelined", got)
		}
		sendTo(t, nodes[0].exts[0].LocalAddr(), append(framesFor(0, k), framesFor(1, k)...)...)
		collect(t, collector, 2*k)
		var handoffs, later uint64
		for _, cs := range nodes[0].ingress.Snapshot().CoreStats {
			handoffs += cs.Handoffs
			if cs.Handoffs == 0 {
				later += cs.Packets
			}
		}
		if handoffs == 0 || later != 2*k {
			t.Fatalf("handoffs %d, packets past the first stage %d, want >0 and %d", handoffs, later, 2*k)
		}
	})

	// Frames routed to a peer that setLive marks dead are recycled into
	// tx_drained and never reach it; after the peer rejoins, delivery
	// resumes.
	t.Run("dead-peer", func(t *testing.T) {
		nodes, collector := wireCluster(t, 2, 1, click.Parallel)
		nodes[0].setLive([]bool{true, false})
		sendTo(t, nodes[0].exts[0].LocalAddr(), append(framesFor(1, k), framesFor(0, k)...)...)
		collect(t, collector, k)
		eventually(t, "tx_drained", func() bool { return nodes[0].txDrained.Load() == k })
		if rx := nodes[1].wireSnapshot().RxFrames; rx != 0 {
			t.Fatalf("dead peer received %d frames", rx)
		}

		nodes[0].setLive([]bool{true, true})
		sendTo(t, nodes[0].exts[0].LocalAddr(), framesFor(1, k)...)
		if from := collect(t, collector, k); from[port(nodes[1])] != k {
			t.Fatalf("after rejoin, delivered by source port %v, want %d from node 1", from, k)
		}
		if d := nodes[0].txDrained.Load(); d != k {
			t.Fatalf("tx_drained %d after rejoin, want %d", d, k)
		}
	})
}

// TestReaderCountsRunts: a datagram too short to hold the Ethernet and
// IPv4 headers is a frame rejected for its header, so the running loop
// counts it in header_drops rather than recycling it unaccounted.
func TestReaderCountsRunts(t *testing.T) {
	nodes, _ := wireCluster(t, 2, 1, click.Parallel)
	sendTo(t, nodes[0].exts[0].LocalAddr(), make([]byte, 10))
	eventually(t, "a header drop", func() bool { return nodes[0].snapshot().HeaderDrops != 0 })
	if got := nodes[0].snapshot().HeaderDrops; got != 1 {
		t.Fatalf("header drops = %d after one 10-byte datagram, want 1", got)
	}
}
