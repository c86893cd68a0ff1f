package main

import (
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
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
	return wireClusterModes(t, make([]bool, n), cores, kind)
}

// wireClusterModes is wireCluster with one member per entry of
// fallback, each true entry a -wire-fallback member.
func wireClusterModes(t *testing.T, fallback []bool, cores int, kind click.PlanKind) ([]*node, *net.UDPConn) {
	t.Helper()
	n := len(fallback)
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
		if nodes[i], err = newNode(i, n, fib, defaultConfig, true, cores, kind, fallback[i]); err != nil {
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

// sendBundle writes frames to addr as one mesh bundle, the way a peer's
// egress sends them.
func sendBundle(t *testing.T, addr net.Addr, frames ...[]byte) {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ps := make([]*pkt.Packet, len(frames))
	to := make([]*net.UDPAddr, len(frames))
	for i, f := range frames {
		ps[i], to[i] = &pkt.Packet{Data: f}, addr.(*net.UDPAddr)
	}
	w := netio.NewBatchWriter(conn, netio.Config{})
	if n, err := w.WriteBundles(ps, to); err != nil || n != len(frames) || w.Stats().Bundles != 1 {
		t.Fatalf("WriteBundles = %d, %v in %d bundles; want %d in 1", n, err, w.Stats().Bundles, len(frames))
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

// accounted is what nd has done with the frames it received: forwarded,
// egressed, dropped for a counted reason, drained, or lost to a failed
// send.
func accounted(nd *node) uint64 {
	s := nd.snapshot()
	return s.Forwarded + s.Egressed + s.HeaderDrops + s.RouteMisses + s.TxDrained + s.TxErrors
}

// shutdownBalanced stops nd and checks its ledger: every frame it
// received was forwarded, egressed, or dropped for a counted reason.
func shutdownBalanced(t *testing.T, nd *node) {
	t.Helper()
	nd.shutdown()
	rx := nd.wireSnapshot().RxFrames
	if sum := accounted(nd); rx != sum {
		t.Errorf("node %d: rx %d != forwarded+egressed+header_drops+route_misses+tx_drained+tx_errors %d", nd.id, rx, sum)
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
		// Counters tick once the kernel has taken the frames, so the
		// collector can have them first.
		eventually(t, "egress counters", func() bool {
			return nodes[0].egressed.Load() == k && nodes[1].egressed.Load() == k && nodes[0].forwarded.Load() == k
		})
		if f1 := nodes[1].forwarded.Load(); f1 != 0 {
			t.Fatalf("node 1 forwarded %d, want 0", f1)
		}
		// Node 0's k frames for node 1 crossed the mesh in bundles, and
		// node 1 received every bundle.
		w0 := nodes[0].wireSnapshot()
		if w0.TxBundled != k || w0.TxBundles == 0 {
			t.Fatalf("node 0 bundled %d frames in %d bundles, want %d frames", w0.TxBundled, w0.TxBundles, k)
		}
		eventually(t, "node 1's bundles", func() bool { return nodes[1].wireSnapshot().RxBundles == w0.TxBundles })
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
		// and on the mesh port a bundled frame whose MAC names no member
		// and a plain frame, which is no bundle: malformed, not a frame
		// the datapath received.
		sendTo(t, nodes[0].exts[0].LocalAddr(), make([]byte, 10),
			frame(netip.MustParseAddr("172.16.0.1"), 0, 64),
			frame(netip.MustParseAddr("10.1.0.1"), 0, 1))
		stray := frame(netip.MustParseAddr("10.1.0.1"), 0, 64)
		mac := pkt.NodeMAC(7)
		copy(stray, mac[:])
		sendBundle(t, nodes[1].int_.LocalAddr(), stray)
		sendTo(t, nodes[1].int_.LocalAddr(), frame(netip.MustParseAddr("10.1.0.1"), 0, 64))
		eventually(t, "slow-path counters", func() bool {
			s0, s1 := nodes[0].snapshot(), nodes[1].snapshot()
			return s0.HeaderDrops == 2 && s0.RouteMisses == 1 && s1.HeaderDrops == 1 && s1.Ingress.Wire.RxMalformed == 1
		})
		// The expired frame is node 0's whole TTL share of its header
		// drops; the runt and the stray MAC are not TTL drops.
		if t0, t1 := nodes[0].snapshot().TTLDrops, nodes[1].snapshot().TTLDrops; t0 != 1 || t1 != 0 {
			t.Fatalf("ttl_drops = %d, %d, want 1, 0", t0, t1)
		}
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

	// A -wire-fallback member shares the mesh with a member on the mmsg
	// path: both send bundles and read them, so every frame crosses in
	// both directions, nothing is malformed and the ledgers balance.
	t.Run("mixed-modes", func(t *testing.T) {
		nodes, collector := wireClusterModes(t, []bool{true, false}, 1, click.Parallel)
		if m0, m1 := nodes[0].wireSnapshot().Mode, nodes[1].wireSnapshot().Mode; m0 != "fallback" || m1 != "mmsg" {
			t.Fatalf("wire modes %s, %s, want fallback, mmsg", m0, m1)
		}
		sendTo(t, nodes[0].exts[0].LocalAddr(), framesFor(1, k)...)
		sendTo(t, nodes[1].exts[0].LocalAddr(), framesFor(0, k)...)
		from := collect(t, collector, 2*k)
		if from[port(nodes[0])] != k || from[port(nodes[1])] != k {
			t.Fatalf("delivered by source port %v, want %d from each ext port", from, k)
		}
		// The sender's counters tick once the kernel has taken the
		// bundles, so the collector can have the frames first.
		eventually(t, "bundle counters", func() bool {
			return nodes[0].wireSnapshot().TxBundled == k && nodes[1].wireSnapshot().TxBundled == k
		})
		for _, nd := range nodes {
			if m := nd.wireSnapshot().RxMalformed; m != 0 {
				t.Fatalf("node %d: %d malformed mesh frames, want 0", nd.id, m)
			}
		}
		for _, nd := range nodes {
			shutdownBalanced(t, nd)
		}
	})

	// Frames routed to a peer that restripe marks dead are recycled into
	// tx_drained and never reach it; after the peer rejoins, delivery
	// resumes.
	t.Run("dead-peer", func(t *testing.T) {
		nodes, collector := wireCluster(t, 2, 1, click.Parallel)
		nodes[0].restripe([]bool{true, false})
		sendTo(t, nodes[0].exts[0].LocalAddr(), append(framesFor(1, k), framesFor(0, k)...)...)
		collect(t, collector, k)
		eventually(t, "tx_drained", func() bool { return nodes[0].txDrained.Load() == k })
		if rx := nodes[1].wireSnapshot().RxFrames; rx != 0 {
			t.Fatalf("dead peer received %d frames", rx)
		}

		nodes[0].restripe([]bool{true, true})
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

// TestEgressCountsSendErrors aims member 0's collector at an IPv6
// address, which the IPv4 send path refuses: every frame it routes to
// the collector is counted in tx_errors rather than as egressed, and
// the ledger balances.
func TestEgressCountsSendErrors(t *testing.T) {
	const k = 40
	fib, err := routebricks.NewFIB(cluster.SeedRoutes(2)...)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := newNode(0, 2, fib, defaultConfig, true, 1, click.Parallel, false)
	if err != nil {
		t.Fatal(err)
	}
	nd.sink = &net.UDPAddr{IP: net.IPv6loopback, Port: 9}
	for j := range nd.peers {
		nd.peers[j] = nd.int_.LocalAddr().(*net.UDPAddr)
	}
	if err := nd.start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.shutdown)
	sendTo(t, nd.exts[0].LocalAddr(), framesFor(0, k)...)
	eventually(t, "tx_errors", func() bool { return nd.snapshot().TxErrors == k })
	shutdownBalanced(t, nd)
	if s := nd.snapshot(); s.Egressed != 0 || s.Forwarded != 0 {
		t.Fatalf("egressed %d, forwarded %d after failed sends, want 0, 0", s.Egressed, s.Forwarded)
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

// shapedConfig is countedConfig with a Shaper, whose token bucket is
// Shared state, on the trunk behind the header check.
const shapedConfig = `
	check :: CheckIPHeader;
	sh    :: Shaper(1000000000, 1000000);
	seen  :: Counter;
	rt    :: LPMLookup(fib);
	ttl   :: DecIPTTL;

	check[0] -> sh;
	sh       -> seen;
	seen     -> rt;
	check[1] -> badhdr;
	rt[0]    -> ttl;
	rt[1]    -> missroute;
	ttl[0]   -> vlb;
	ttl[1]   -> badttl;
`

// TestMemberHUPAuto: a member started at -cores 2 -placement auto runs
// parallel. Its SIGHUP handler restates Auto for the new program, so a
// reload to a program with a Shaper on its trunk lands on one pipelined
// chain instead of being refused for cloning the Shaper, and the member
// forwards every frame with an exact ledger.
func TestMemberHUPAuto(t *testing.T) {
	const k = 64
	nodes, collector := wireCluster(t, 2, 2, click.Auto)
	nd := nodes[0]
	if got, chains := nd.ingress.Placement(), nd.ingress.Chains(); got != click.Parallel || chains != 2 {
		t.Fatalf("started as %s with %d chains, want parallel with 2", got, chains)
	}
	if err := nd.hup(writeConfig(t, shapedConfig)); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got, chains := nd.ingress.Placement(), nd.ingress.Chains(); got != click.Pipelined || chains != 1 {
		t.Fatalf("reloaded as %s with %d chains, want pipelined with 1", got, chains)
	}
	if desc := nd.ingress.Describe(); !strings.Contains(desc, "shared-state elements [sh]") {
		t.Fatalf("Describe does not name the Shaper:\n%s", desc)
	}
	sendTo(t, nd.exts[0].LocalAddr(), append(framesFor(0, k), framesFor(1, k)...)...)
	collect(t, collector, 2*k)
	for _, nd := range nodes {
		shutdownBalanced(t, nd)
	}
	if c := nd.ingress.Element(0, "seen").(*elements.Counter).Packets(); c != 2*k {
		t.Fatalf("the reloaded graph counted %d frames, want %d", c, 2*k)
	}
}

// liveCounts reports how many members each chain's VLB balancer stripes
// over. The balancers belong to the socket loops, so call it only after
// nd has shut down.
func liveCounts(nd *node) []int {
	var out []int
	for c := 0; c < nd.ingress.Chains(); c++ {
		out = append(out, nd.ingress.Element(c, "vlb").(*udpForward).bal.LiveCount())
	}
	return out
}

// TestRestripeKeepsReloads: a membership change is applied by each
// chain's owner, not by a plan swap, so it undoes neither a SIGHUP
// reload nor a reload that re-places the program in force, and the
// balancers a later reload builds still stripe over the survivors only.
func TestRestripeKeepsReloads(t *testing.T) {
	const k = 64
	nodes, collector := wireCluster(t, 2, 2, click.Parallel)
	nd := nodes[0]
	if gen := nd.restripe([]bool{true, false}); gen != 1 {
		t.Fatalf("restripe: generation %d, want 1", gen)
	}
	if err := nd.hup(writeConfig(t, countedConfig)); err != nil {
		t.Fatal(err)
	}
	// Re-placing the program in force under Auto decides for the
	// reloaded program, not the one the member started with.
	replace := func(kind click.PlanKind) error {
		return nd.swap(func() error { return nd.ingress.Reload(nd.ingress.Program(), routebricks.Options{Placement: kind}) })
	}
	if err := replace(click.Auto); err != nil {
		t.Fatal(err)
	}
	if g := nd.ingress.Generation(); g != 2 || nd.ingress.Program() != countedConfig || nd.ingress.Element(0, "seen") == nil {
		t.Fatalf("after the re-placement: generation %d, the reloaded program in force %v", g, nd.ingress.Program() == countedConfig)
	}
	// A re-placement that lands on pipelined, forced here.
	if err := replace(click.Pipelined); err != nil {
		t.Fatal(err)
	}
	// The rebuilt datapath forwards through the started Runner, and
	// drains what it routes to the dead peer.
	sendTo(t, nd.exts[0].LocalAddr(), append(framesFor(0, k), framesFor(1, k)...)...)
	collect(t, collector, k)
	eventually(t, "frames for the dead peer drained", func() bool { return nd.txDrained.Load() == k })
	nd.shutdown()

	if g := nd.ingress.Generation(); g != 3 {
		t.Fatalf("generation %d, want 3: the hup and the two re-placements, not the re-stripe", g)
	}
	if got := nd.ingress.Placement(); got != click.Pipelined {
		t.Fatalf("placement %s, want pipelined", got)
	}
	if nd.ingress.Element(0, "seen") == nil {
		t.Fatal("the reloaded program is not in force")
	}
	for c, n := range liveCounts(nd) {
		if n != 1 {
			t.Fatalf("chain %d's balancer stripes over %d members, want 1: its first batch did not apply the re-stripe", c, n)
		}
	}
}

// TestRestripeUnderLoad flips node 1 dead and alive on node 0 a thousand
// times while frames stream into node 0. No flip swaps a plan, the
// ledgers balance, and once every chain has run a batch after the last
// flip, every balancer stripes over the final vector.
func TestRestripeUnderLoad(t *testing.T) {
	const flips, burst, window = 1000, 4, 256
	nodes, _ := wireCluster(t, 2, 2, click.Parallel)
	nd := nodes[0]
	conn, err := net.DialUDP("udp4", nil, nd.exts[0].LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var sent uint64
	next := func() []byte {
		sent++
		return frame(netip.AddrFrom4([4]byte{10, byte(sent % 2), 0, byte(1 + sent%200)}), int(sent), 64)
	}
	for i := 0; i < flips; i++ {
		nd.restripe([]bool{true, i%2 == 0}) // the last flip kills node 1
		for j := 0; j < burst; j++ {
			if _, err := conn.Write(next()); err != nil {
				t.Fatal(err)
			}
		}
		eventually(t, "room in the send window", func() bool { return sent-accounted(nd) < window })
	}

	// One more batch on every chain: a frame from a fresh source port
	// each poll, until the kernel's SO_REUSEPORT hash has fed every
	// socket loop one.
	base := nd.ingress.Snapshot().CoreStats
	eventually(t, "a batch on every chain after the last flip", func() bool {
		sendTo(t, nd.exts[0].LocalAddr(), next())
		fed := true
		for c, cs := range nd.ingress.Snapshot().CoreStats {
			fed = fed && cs.Packets > base[c].Packets
		}
		return fed
	})
	eventually(t, "node 0 accounts every frame", func() bool { return accounted(nd) == sent })
	// forwarded counts frames, bundled or not: node 1 transits each one.
	eventually(t, "node 1 transits every forwarded frame", func() bool {
		return nodes[1].transited.Load() == nd.forwarded.Load()
	})
	for _, n := range nodes {
		shutdownBalanced(t, n)
	}

	if g := nd.ingress.Generation(); g != 0 {
		t.Fatalf("generation %d after %d re-stripes, want 0: a re-stripe swapped the plan", g, flips)
	}
	for c, n := range liveCounts(nd) {
		if n != 1 {
			t.Fatalf("chain %d's balancer stripes over %d members, want 1: the last flip's vector", c, n)
		}
	}
}
