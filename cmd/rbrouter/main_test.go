package main

import (
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/cluster"
	"routebricks/internal/elements"
	"routebricks/internal/netio"
	"routebricks/internal/pkt"
)

// newNode builds member id of an n-member mesh on ephemeral loopback
// sockets; the caller wires up its peers and sink.
func newNode(id, n int, fib *routebricks.RouteAdmin, cfgText string, flowlets bool, cores int, kind click.PlanKind, fallback bool) (*node, error) {
	exts, err := netio.ListenReusePort("udp4", "127.0.0.1:0", cores)
	if err != nil {
		return nil, err
	}
	intc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return newNodeOnConns(id, n, exts, intc, fib, cfgText, flowlets, cores, kind, fallback)
}

// wireCluster starts n members in this process on loopback sockets,
// every member's egress aimed at the returned collector. The members
// shut down at cleanup.
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

// shutdownBalanced stops nd and checks its ledger: every frame it
// received was forwarded, egressed, or dropped for a counted reason.
func shutdownBalanced(t *testing.T, nd *node) {
	t.Helper()
	nd.shutdown()
	rx := nd.wireSnapshot().RxFrames
	sum := nd.forwarded.Load() + nd.egressed.Load() + nd.hdrDrops.Load() + nd.routeMiss.Load() + nd.txDrained.Load()
	if rx != sum {
		t.Errorf("node %d: rx %d != forwarded+egressed+header_drops+route_misses+tx_drained %d", nd.id, rx, sum)
	}
}

// countedConfig is the embedded program with a named Counter, seen,
// spliced in behind the header check.
const countedConfig = `
	check :: CheckIPHeader;
	seen  :: Counter;
	rt    :: LPMLookup(fib);
	ttl   :: DecIPTTL;

	check[0] -> seen;
	seen     -> rt;
	check[1] -> badhdr;
	rt[0]    -> ttl;
	rt[1]    -> missroute;
	ttl[0]   -> vlb;
	ttl[1]   -> badttl;
`

// writeConfig writes text to a fresh -config file and returns its path.
func writeConfig(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ingress.click")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

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
			shutdownBalanced(t, nd)
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

// TestMemberHUP streams frames into a member and runs its SIGHUP
// handler halfway: the reload swaps in a program with a new element
// without losing a frame, and the ledger balances afterwards. A config
// that does not parse is refused and the running program stays.
func TestMemberHUP(t *testing.T) {
	const total, window = 2000, 128
	nodes, collector := wireCluster(t, 2, 1, click.Parallel)
	cfg := writeConfig(t, countedConfig)

	// The collector drains on its own goroutine, so the sender keeps a
	// bounded window of frames in flight across the reload instead of
	// overrunning a socket buffer.
	var collected atomic.Int64
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, err := collector.Read(buf); err != nil {
				return // closed at cleanup
			}
			collected.Add(1)
		}
	}()
	conn, err := net.DialUDP("udp4", nil, nodes[0].exts[0].LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < total; i++ {
		if i == total/2 {
			if err := nodes[0].hup(cfg); err != nil {
				t.Fatalf("reload: %v", err)
			}
		}
		eventually(t, "room in the send window", func() bool { return int64(i)-collected.Load() < window })
		dst := netip.AddrFrom4([4]byte{10, byte(i % 2), 0, byte(1 + i%200)})
		if _, err := conn.Write(frame(dst, i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "every frame collected", func() bool { return collected.Load() == total })

	// Generation counts swaps from 0 at Load: the one reload reads 1.
	if g := nodes[0].ingress.Generation(); g != 1 {
		t.Fatalf("generation %d after one reload, want 1", g)
	}
	seen, ok := nodes[0].ingress.Element(0, "seen").(*elements.Counter)
	if !ok {
		t.Fatal("the reloaded program has no Counter named seen")
	}
	// Every frame sent after the reload crossed the new graph.
	if c := seen.Packets(); c < total/2 || c > total {
		t.Fatalf("seen counted %d frames, want %d..%d", c, total/2, total)
	}

	if err := nodes[0].hup(writeConfig(t, "check :: NoSuchElement;")); err == nil {
		t.Fatal("a config naming an unknown element reloaded")
	}
	if g := nodes[0].ingress.Generation(); g != 1 || nodes[0].ingress.Element(0, "seen") == nil {
		t.Fatalf("a refused reload changed the running program (generation %d)", g)
	}
	for _, nd := range nodes {
		shutdownBalanced(t, nd)
	}
}

// TestRestripeKeepsReloadAndReplan: a membership change re-installs the
// program and placement in force, not the ones the member started
// with, so it undoes neither a SIGHUP reload nor a replan.
func TestRestripeKeepsReloadAndReplan(t *testing.T) {
	nodes, collector := wireCluster(t, 2, 2, click.Parallel)
	nd := nodes[0]
	if err := nd.hup(writeConfig(t, countedConfig)); err != nil {
		t.Fatal(err)
	}
	// The member's own replan probes the reloaded program, not the one it
	// started with, and re-places it.
	if err := nd.replan(); err != nil {
		t.Fatal(err)
	}
	if g := nd.ingress.Generation(); g != 2 || nd.ingress.Program() != countedConfig || nd.ingress.Element(0, "seen") == nil {
		t.Fatalf("after the replan: generation %d, the reloaded program in force %v", g, nd.ingress.Program() == countedConfig)
	}
	// A replan that lands on pipelined, forced here rather than probed.
	if err := nd.swap(func() error { return nd.ingress.Replan(routebricks.Options{Placement: click.Pipelined}) }); err != nil {
		t.Fatal(err)
	}
	if gen, err := nd.restripe([]bool{true, true}); err != nil || gen != 1 {
		t.Fatalf("restripe: generation %d, err %v", gen, err)
	}
	if got := nd.ingress.Placement(); got != click.Pipelined {
		t.Fatalf("placement %s after the re-stripe, want pipelined", got)
	}
	if nd.ingress.Element(0, "seen") == nil {
		t.Fatal("the re-stripe reverted the reloaded program")
	}
	// The re-striped datapath forwards through the started Runner.
	sendTo(t, nd.exts[0].LocalAddr(), append(framesFor(0, 64), framesFor(1, 64)...)...)
	collect(t, collector, 128)
}
