// Benchmarks regenerating every table and figure of the RouteBricks
// evaluation. Each benchmark runs the corresponding experiment and
// reports its headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced numbers alongside the usual ns/op. The analytic
// experiments are instantaneous; the RB4 discrete-event experiments
// simulate a few virtual milliseconds per iteration.
package routebricks

import (
	"fmt"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routebricks/internal/click"
	"routebricks/internal/elements"
	"routebricks/internal/exec"
	"routebricks/internal/experiments"
	"routebricks/internal/hw"
	"routebricks/internal/ipsec"
	"routebricks/internal/lpm"
	"routebricks/internal/pkt"
	"routebricks/internal/rss"
)

// cell parses a numeric report cell ("9.71", "0.0059%").
func cell(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func BenchmarkTable1_PollingConfigs(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Table1()
	}
	b.ReportMetric(cell(b, rep.Rows[2][1]), "Gbps-tuned")
	b.ReportMetric(cell(b, rep.Rows[0][1]), "Gbps-nobatch")
}

func BenchmarkTable2_ComponentBounds(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Table2()
	}
	b.ReportMetric(cell(b, rep.Rows[1][2]), "mem-emp-Gbps")
}

func BenchmarkTable3_CPIAnalysis(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Table3()
	}
	b.ReportMetric(cell(b, rep.Rows[0][2]), "fwd-instr")
	b.ReportMetric(cell(b, rep.Rows[2][2]), "ipsec-instr")
}

func BenchmarkFig3_TopologyCost(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig3()
	}
	// Current-server cluster size at N=1024 (paper: ≈3 servers/port).
	for _, row := range rep.Rows {
		if row[0] == "1024" {
			v, _ := strconv.Atoi(strings.Fields(row[1])[0])
			b.ReportMetric(float64(v), "servers@1024")
		}
	}
}

func BenchmarkFig6_QueueScenarios(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig6()
	}
	b.ReportMetric(cell(b, rep.Rows[2][1]), "parallel-GbpsFP")
	b.ReportMetric(cell(b, rep.Rows[5][1]), "overlap1q-GbpsFP")
}

func BenchmarkFig7_CumulativeImpact(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig7()
	}
	b.ReportMetric(cell(b, rep.Rows[3][1]), "tuned-Mpps")
	b.ReportMetric(cell(b, rep.Rows[0][1]), "xeon-Mpps")
}

func BenchmarkFig8_Workloads(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig8()
	}
	for _, row := range rep.Rows {
		if row[0] == "64B" && row[1] == "rtr" {
			b.ReportMetric(cell(b, row[2]), "rtr64-Gbps")
		}
		if row[0] == "Abilene" && row[1] == "ipsec" {
			b.ReportMetric(cell(b, row[2]), "ipsecAb-Gbps")
		}
	}
}

func BenchmarkFig9_CPULoad(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig9()
	}
	b.ReportMetric(cell(b, rep.Rows[0][1]), "fwd-cycles")
}

func BenchmarkFig10_BusLoads(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Fig10()
	}
	b.ReportMetric(cell(b, rep.Rows[0][2]), "fwd-memBpp")
}

func BenchmarkNUMA_Placement(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.NUMA()
	}
	b.ReportMetric(cell(b, rep.Rows[0][1]), "fourCore-Gbps")
}

func BenchmarkProjection_NextGen(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.Projection()
	}
	b.ReportMetric(cell(b, rep.Rows[0][1]), "fwd-Gbps")
	b.ReportMetric(cell(b, rep.Rows[1][1]), "rtr-Gbps")
}

func BenchmarkRB4Rate_Analytic(b *testing.B) {
	var g64, gab float64
	for i := 0; i < b.N; i++ {
		_, g64, _ = experiments.RB4Analytic(64)
		_, gab, _ = experiments.RB4Analytic(experiments.AbileneMean)
	}
	b.ReportMetric(g64, "Gbps-64B")
	b.ReportMetric(gab, "Gbps-abilene")
}

func BenchmarkRB4Reordering_DES(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.RB4Reordering(true)
	}
	b.ReportMetric(cell(b, rep.Rows[0][1]), "pct-flowlets")
	b.ReportMetric(cell(b, rep.Rows[1][1]), "pct-plain")
}

func BenchmarkRB4Latency_DES(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.RB4Latency(true)
	}
	b.ReportMetric(cell(b, rep.Rows[0][1]), "mean-us")
}

func BenchmarkAblation_BatchingGrid(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.AblationBatching()
	}
	_ = rep
}

// BenchmarkDispatch is the headline dataflow microbenchmark: the
// standard IP forwarding path (PollDevice → CheckIPHeader → LPMLookup →
// DecIPTTL → ToDevice) at poll batch kp=1 and kp=32 — paper Table 1's kp
// axis as a code path. Every hop is one call per batch and buffers come
// from and return to the pool, so the two arms differ only in how many
// packets each call carries. Each b.N iteration moves 32 packets (32
// polls at kp=1, one at kp=32), so ns/op and allocs/op compare directly.
func BenchmarkDispatch(b *testing.B) {
	const perOp = 32
	table := lpm.NewDir248()
	if err := table.Insert(netip.MustParsePrefix("10.0.0.0/16"), 1); err != nil {
		b.Fatal(err)
	}
	table.Freeze()
	src := netip.MustParseAddr("10.1.0.1")
	dst := netip.MustParseAddr("10.0.0.2")

	run := func(b *testing.B, kp int) {
		in := exec.NewRing(2 * perOp)
		out := exec.NewRing(2 * perOp)
		poll := elements.NewPollDevice(in, kp)
		poll.ChargeForward = false // measure dispatch, not the modelled forwarding cycles
		check := &elements.CheckIPHeader{}
		look := elements.NewLPMLookup(table)
		ttl := &elements.DecIPTTL{}
		dev := elements.NewToDevice(out, 16)
		poll.SetBatchOutput(0, click.BatchDispatch(check, 0))
		check.SetBatchOutput(0, click.BatchDispatch(look, 0))
		look.SetBatchOutput(0, click.BatchDispatch(ttl, 0))
		ttl.SetBatchOutput(0, click.BatchDispatch(dev, 0))
		ctx := &click.Context{}
		drain := pkt.NewBatch(perOp)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < perOp; j++ {
				p := pkt.New(pkt.MinSize, src, dst, uint16(1000+j), 80)
				p.IPv4().SetTTL(64)
				p.IPv4().UpdateChecksum()
				in.Push(p)
			}
			for moved := 0; moved < perOp; {
				got := poll.Run(ctx)
				if got != kp {
					b.Fatalf("poll moved %d packets, want %d", got, kp)
				}
				moved += got
			}
			ctx.TakeCycles()
			drain.Reset()
			if n := out.PopBatchInto(drain, perOp); n != perOp {
				b.Fatalf("forwarded %d packets, want %d", n, perOp)
			}
			pkt.DefaultPool.PutBatch(drain)
		}
	}

	b.Run("kp=1", func(b *testing.B) { run(b, 1) })
	b.Run("kp=32", func(b *testing.B) { run(b, perOp) })
}

// BenchmarkSteer prices the RSS role's per-packet steering work — what
// PushFlow adds over a bare ring push: the symmetric 5-tuple hash
// (recomputed every op, the worst case of a freshly received packet)
// and rss.Chain's table lookup, at every chain count the placement
// sweep uses. Steering runs on the reader goroutine for every packet,
// so it must stay allocation-free — the benchmark hard-fails if one op
// allocates.
func BenchmarkSteer(b *testing.B) {
	const flows = 1024 // power of two, for the index mask
	for _, chains := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("chains=%d", chains), func(b *testing.B) {
			src := netip.MustParseAddr("10.1.0.1")
			dst := netip.MustParseAddr("10.0.0.2")
			pkts := make([]*pkt.Packet, flows)
			for i := range pkts {
				pkts[i] = pkt.New(pkt.MinSize, src, dst, uint16(2000+i), 443)
			}
			steer := func(p *pkt.Packet) int {
				p.InvalidateFlowHash()
				return rss.Chain(p.RSSHash(), chains)
			}
			if allocs := testing.AllocsPerRun(100, func() { steer(pkts[0]) }); allocs != 0 {
				b.Fatalf("steering allocates (%.0f allocs/op, want 0)", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				steerSink += steer(pkts[i&(flows-1)])
			}
		})
	}
}

// steerSink keeps BenchmarkSteer's chain computation from being
// optimized away.
var steerSink int

// BenchmarkHandoff prices what a pipelined plan pays at every stage
// boundary: one op is one packet moved through an SPSC exec.Ring from
// this goroutine to an echo goroutine and back (kp-sized batches,
// mirroring pollTask), so ns/op is the round trip and the reported
// cycles/pkt metric is one crossing at the paper's 2.8 GHz Nehalem
// clock, the unit of the elements' per-packet cycle charges.
func BenchmarkHandoff(b *testing.B) {
	const kp = 32
	ping := exec.NewRing(kp)
	pong := exec.NewRing(kp)
	pkts := make([]*pkt.Packet, kp)
	for i := range pkts {
		pkts[i] = &pkt.Packet{}
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := pkt.NewBatch(kp)
		for !stop.Load() {
			batch.Reset()
			if ping.PopBatchInto(batch, kp) == 0 {
				runtime.Gosched()
				continue
			}
			pong.PushBatch(batch)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for remaining := b.N; remaining > 0; {
		n := kp
		if remaining < n {
			n = remaining
		}
		for _, p := range pkts[:n] {
			for !ping.Push(p) {
				runtime.Gosched()
			}
		}
		for got := 0; got < n; {
			if p := pong.Pop(); p != nil {
				got++
			} else {
				runtime.Gosched()
			}
		}
		remaining -= n
	}
	b.StopTimer()
	stop.Store(true)
	<-done
	b.ReportMetric(b.Elapsed().Seconds()*2.8e9/float64(2*b.N), "cycles/pkt")
}

// placementSink terminates a placement-benchmark chain: it counts the
// delivery and returns the packet to the chain's free ring so the
// producer can re-inject it — a closed loop with zero steady-state
// allocation. The sink runs on the chain's last core, which makes it
// the single producer of the free ring.
type placementSink struct {
	free      *exec.Ring
	delivered *atomic.Uint64
	lost      *atomic.Uint64
}

func (s *placementSink) InPorts() int  { return 1 }
func (s *placementSink) OutPorts() int { return 0 }

func (s *placementSink) Push(_ *click.Context, _ int, p *pkt.Packet) {
	s.delivered.Add(1)
	if !s.free.Push(p) {
		s.lost.Add(1)
	}
}

func (s *placementSink) PushBatch(_ *click.Context, _ int, b *pkt.Batch) {
	n := b.Compact()
	if n == 0 {
		return
	}
	s.delivered.Add(uint64(n))
	got := s.free.PushBatch(b)
	if got < n {
		s.lost.Add(uint64(n - got))
	}
	b.Reset()
}

// placementConfig is the standard IP forwarding path in the Click
// language — what BenchmarkPlacement loads through the graph-first
// Program API. The trunk (check → rt → ttl) leaves output 0 dangling
// for the benchmark's closed-loop sink; each error port routes to its
// own prebound counting drop so the trunk stays fully cuttable.
const placementConfig = `
	check :: CheckIPHeader;
	rt    :: LPMLookup(fib);
	ttl   :: DecIPTTL;
	check[0] -> rt;
	check[1] -> badhdr;
	rt[0]    -> ttl;
	rt[1]    -> badroute;
	ttl[1]   -> badttl;
`

// BenchmarkPlacement is the §4.2 core-allocation experiment as a real
// multi-core code path: the standard IP forwarding pipeline
// (CheckIPHeader → LPMLookup → DecIPTTL), written in the Click
// language and loaded through routebricks.Load, materialized as either
// a Parallel plan (each core runs the whole graph on its own input
// ring) or a Pipelined plan (the trunk cut across cores, joined by
// SPSC handoff rings), driven on real goroutines by the click Runner.
// One op is one 64-byte packet moved source→sink, so the Mpps metric
// compares directly across kinds and core counts. The paper's finding
// — parallel ≥ pipelined, because inter-core handoffs dominate —
// should reproduce at every core count.
//
// The app=esp rows run the paper's IPsec workload instead
// (CheckIPHeader → ESPEncap, real AES). ESPEncap's sequence space is
// Shared state, which no plan may clone, so they compare 1-core
// Parallel against 2-core Auto, which places one pipelined chain.
func BenchmarkPlacement(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		for _, kind := range []click.PlanKind{click.Parallel, click.Pipelined} {
			b.Run(fmt.Sprintf("%s/cores=%d", kind, cores), func(b *testing.B) {
				runPlacement(b, kind, cores)
			})
		}
	}
	b.Run("app=esp/parallel/cores=1", func(b *testing.B) { runESPPlacement(b, click.Parallel, 1) })
	b.Run("app=esp/auto/cores=2", func(b *testing.B) { runESPPlacement(b, click.Auto, 2) })
}

// lossDrop terminates an error port in a loss-free benchmark loop: it
// sees no traffic, but a misroute must show up in the lost total
// rather than vanish.
func lossDrop(lost *atomic.Uint64) Element {
	return &elements.Sink{
		Fn:      func(_ *click.Context, _ *pkt.Packet) { lost.Add(1) },
		Recycle: pkt.DefaultPool,
	}
}

func runPlacement(b *testing.B, kind click.PlanKind, cores int) {
	const kp = 32
	// workset is the fleet-wide in-flight packet count. It deliberately
	// does NOT scale with cores: the buffer working set is what a real
	// router's fixed pool would be, so adding cores cannot silently
	// inflate cache pressure per packet. The gather-anywhere feeder
	// below redistributes the fixed workset across however many chains
	// the plan has.
	const workset = 512
	table := lpm.NewDir248()
	if err := table.Insert(netip.MustParsePrefix("10.0.0.0/16"), 1); err != nil {
		b.Fatal(err)
	}
	table.Freeze()

	var delivered, lost atomic.Uint64
	var frees []*exec.Ring
	pipe, err := Load(placementConfig, Options{
		Cores:     cores,
		Placement: kind,
		KP:        kp,
		Prebound: func(chain int) map[string]Element {
			return map[string]Element{
				"fib":      elements.NewLPMLookup(table),
				"badhdr":   lossDrop(&lost),
				"badroute": lossDrop(&lost),
				"badttl":   lossDrop(&lost),
			}
		},
		Sink: func(int) Element {
			// The gather-anywhere feeder may route the whole workset
			// through one chain, so any one free ring may transiently hold
			// all of it — size each for the whole fleet.
			s := &placementSink{free: exec.NewRing(workset), delivered: &delivered, lost: &lost}
			frees = append(frees, s.free)
			return s
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	driveForwarding(b, pipe, frees, &delivered, &lost)
}

// espConfig is BenchmarkPlacement's IPsec path: the header check, then
// ESP encapsulation. esp is prebound, because ESPEncap needs a tunnel
// key and is not in the registry; its output 0 dangles for the sink.
const espConfig = `
	check :: CheckIPHeader;
	check[0] -> esp;
	check[1] -> badhdr;
	esp[1]   -> oversize;
`

// espSink closes the ESP loop: it cuts each sealed frame back to a
// minimum-size plaintext IPv4/UDP frame in place (driveForwarding
// restores TTL and checksum) before returning it to the free ring, so
// every trip seals the same 64-byte packet.
type espSink struct{ placementSink }

func (s *espSink) Push(ctx *click.Context, port int, p *pkt.Packet) {
	toPlaintext(p)
	s.placementSink.Push(ctx, port, p)
}

func (s *espSink) PushBatch(ctx *click.Context, port int, b *pkt.Batch) {
	for _, p := range b.Packets() {
		if p != nil {
			toPlaintext(p)
		}
	}
	s.placementSink.PushBatch(ctx, port, b)
}

func toPlaintext(p *pkt.Packet) {
	p.Data = p.Data[:pkt.MinSize]
	ih := p.IPv4()
	ih.SetTotalLength(pkt.MinSize - pkt.EtherHdrLen)
	ih.SetProtocol(pkt.ProtoUDP)
	ih.SetSrc(netip.AddrFrom4([4]byte{10, 1, 0, 1}))
	ih.SetDst(netip.AddrFrom4([4]byte{10, 0, 0, 2}))
}

// runESPPlacement is runPlacement for espConfig. Each chain seals with
// its own tunnel; the plaintext ESPEncap consumes returns to the pool.
func runESPPlacement(b *testing.B, kind click.PlanKind, cores int) {
	const workset = 512
	var delivered, lost atomic.Uint64
	var frees []*exec.Ring
	pipe, err := Load(espConfig, Options{
		Cores:     cores,
		Placement: kind,
		KP:        32,
		Prebound: func(chain int) map[string]Element {
			tun, err := ipsec.NewTunnel(0x5252, []byte("routebricks-2009"))
			if err != nil {
				b.Fatal(err)
			}
			esp := elements.NewESPEncap(tun, netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"))
			return map[string]Element{"esp": esp, "badhdr": lossDrop(&lost), "oversize": lossDrop(&lost)}
		},
		Sink: func(int) Element {
			s := &espSink{placementSink{free: exec.NewRing(workset), delivered: &delivered, lost: &lost}}
			frees = append(frees, s.free)
			return s
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if kind == click.Auto && (pipe.Placement() != click.Pipelined || pipe.Chains() != 1) {
		b.Fatalf("Auto placed ESP as %s with %d chains, want one pipelined chain", pipe.Placement(), pipe.Chains())
	}
	driveForwarding(b, pipe, frees, &delivered, &lost)
}

// driveForwarding is the closed-loop measurement core shared by
// BenchmarkPlacement and BenchmarkChurn: seed the fixed workset into the
// chains' free rings, start the plan, move b.N packets source→sink, and
// assert the loop stayed loss-free. One op is one 64-byte packet.
func driveForwarding(b *testing.B, pipe *Pipeline, frees []*exec.Ring, delivered, lost *atomic.Uint64) {
	const kp = 32
	const workset = 512
	plan := pipe.Plan()
	src := netip.MustParseAddr("10.1.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	for j := 0; j < workset; j++ {
		p := pkt.New(pkt.MinSize, src, dst, uint16(1000+j), 80)
		p.IPv4().SetTTL(64)
		p.IPv4().UpdateChecksum()
		frees[j%len(frees)].Push(p)
	}
	if err := plan.Start(); err != nil {
		b.Fatal(err)
	}
	// Feed in quanta much deeper than the workers' poll batch: a worker
	// keeps draining without yielding while its ring is non-empty, so
	// each feeder visit buys several uninterrupted worker steps instead
	// of one — the scheduler switch is amortized over feedBatch packets,
	// not kp. The workers still process kp at a time.
	const feedBatch = 8 * kp
	scratch := pkt.NewBatch(feedBatch)
	b.ReportAllocs()
	b.ResetTimer()
	remaining := b.N
	// Scatter without stalling: recycled buffers are gathered from
	// whichever free rings hold them, then pushed to the target chain. A chain whose input ring is full is
	// skipped, not waited on; the feeder yields the CPU only after a
	// whole rotation moves nothing, so one slow chain costs one skip
	// instead of a scheduler round trip. The feeder is the sole producer
	// of every input ring and sole consumer of every free ring, so no
	// cursor or ring is shared with another producer.
	for idleChains := 0; remaining > 0; {
		for chain := 0; chain < plan.Chains() && remaining > 0; chain++ {
			limit := feedBatch
			if remaining < limit {
				limit = remaining
			}
			if room := plan.Input(chain).Free(); room < limit {
				limit = room
			}
			if limit == 0 {
				idleChains++
				continue
			}
			scratch.Reset()
			n := 0
			for src := 0; src < len(frees) && n < limit; src++ {
				n += frees[(chain+src)%len(frees)].PopBatchInto(scratch, limit-n)
			}
			if n == 0 {
				idleChains++
				continue
			}
			idleChains = 0
			for _, p := range scratch.Packets() {
				// The previous trip decremented the TTL; restore it so the
				// packet is route-valid forever.
				ih := p.IPv4()
				ih.SetTTL(64)
				ih.UpdateChecksum()
			}
			plan.Input(chain).PushBatch(scratch)
			remaining -= n
		}
		if idleChains >= plan.Chains() {
			idleChains = 0
			runtime.Gosched()
		}
	}
	for delivered.Load()+lost.Load() < uint64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	plan.Stop()
	if got := lost.Load() + plan.Drops(); got != 0 {
		b.Fatalf("%d packets lost in a loss-free benchmark", got)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
}

// BenchmarkChurn is the live-FIB proof: the BenchmarkPlacement
// forwarding loop bound to a million-route live table through
// Options.FIB, measured with the control plane idle and again with a
// background writer committing paced route batches the whole time. The
// benchmark is loss-free by construction — the seeded default route
// means a lookup can only miss if a reader ever observed a partially
// built table, so the zero-loss assert doubles as the RCU correctness
// check under real traffic. The live run additionally reports the
// sustained route-update rate as updates/s.
func BenchmarkChurn(b *testing.B) {
	for _, mode := range []struct {
		name string
		live bool
	}{{"idle", false}, {"live", true}} {
		b.Run(fmt.Sprintf("fib=1M/%s/cores=2", mode.name), func(b *testing.B) {
			runChurn(b, mode.live, 2)
		})
	}
}

func runChurn(b *testing.B, live bool, cores int) {
	const kp = 32
	const workset = 512
	// The paper-scale FIB: 2^20 random prefixes plus a default route,
	// seeded as one commit. The default route guarantees every lookup
	// resolves, whatever the churner below has added or withdrawn.
	fib, err := NewFIB(lpm.RandomTable(1<<20, 8, 11, true)...)
	if err != nil {
		b.Fatal(err)
	}

	var delivered, lost atomic.Uint64
	var frees []*exec.Ring
	pipe, err := Load(placementConfig, Options{
		Cores:     cores,
		Placement: click.Parallel,
		KP:        kp,
		FIB:       fib,
		Prebound: func(chain int) map[string]Element {
			drop := func() Element {
				return &elements.Sink{
					Fn:      func(_ *click.Context, _ *pkt.Packet) { lost.Add(1) },
					Recycle: pkt.DefaultPool,
				}
			}
			return map[string]Element{
				"badhdr":   drop(),
				"badroute": drop(),
				"badttl":   drop(),
			}
		},
		Sink: func(int) Element {
			s := &placementSink{free: exec.NewRing(workset), delivered: &delivered, lost: &lost}
			frees = append(frees, s.free)
			return s
		},
	})
	if err != nil {
		b.Fatal(err)
	}

	// The churner: batches of 256 /24s in 100.64/10 (clear of the
	// benchmark's 10.0.0.2 destination), alternately committed and
	// withdrawn on a fixed cadence. Each flip is one generation — the
	// burst-coalescing contract — and runs concurrently with the
	// forwarding cores below.
	var ops atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	if live {
		churn := make([]Route, 256)
		for i := range churn {
			churn[i] = Route{
				Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24),
				NextHop: i % 8,
			}
		}
		dels := make([]netip.Prefix, len(churn))
		for i, r := range churn {
			dels[i] = r.Prefix
		}
		go func() {
			defer close(done)
			present := false
			for {
				var err error
				if present {
					_, err = fib.Update(nil, dels)
				} else {
					_, err = fib.Update(churn, nil)
				}
				if err != nil {
					b.Error(err)
					return
				}
				present = !present
				ops.Add(uint64(len(churn)))
				// Paced, not flooded: each commit clones the touched tbl24
				// pages and retires them to the GC, so an unthrottled writer
				// measures allocator contention, not the read path. Four
				// commits a second is ~1k route updates/s sustained — far
				// beyond BGP churn — while leaving the forwarding cores
				// most of an oversubscribed host.
				select {
				case <-stop:
					return
				case <-time.After(250 * time.Millisecond):
				}
			}
		}()
	} else {
		close(done)
	}

	driveForwarding(b, pipe, frees, &delivered, &lost)

	close(stop)
	<-done
	if live {
		b.ReportMetric(float64(ops.Load())/b.Elapsed().Seconds(), "updates/s")
	}
}

// BenchmarkPool measures the packet pool's allocation fast path under
// contention: w goroutines each doing Get(64)+Put in a tight loop, one
// op per round trip. "legacy" forces a single shard — every goroutine
// funnels through one lock, the pre-sharding behavior. "sharded" gives
// each goroutine its own shard handle, so the steady-state round trip
// takes only the goroutine's own shard lock. The gap between the two
// curves at 2/4/8 goroutines is the contention the sharding removes.
func BenchmarkPool(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []string{"legacy", "sharded"} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode, workers), func(b *testing.B) {
				shards := 1
				if mode == "sharded" {
					shards = workers
				}
				pool := pkt.NewPoolShards(4096, shards)
				var start, done sync.WaitGroup
				start.Add(1)
				done.Add(workers)
				per := b.N / workers
				b.ReportAllocs()
				for w := 0; w < workers; w++ {
					n := per
					if w == 0 {
						n += b.N % workers
					}
					shard := pool.Shard(w)
					go func() {
						defer done.Done()
						start.Wait()
						for i := 0; i < n; i++ {
							p := shard.Get(64)
							shard.Put(p)
						}
					}()
				}
				b.ResetTimer()
				start.Done()
				done.Wait()
			})
		}
	}
}

// Single-server MaxRate microbenchmark: the whole bottleneck analysis is
// cheap enough to sit inside control loops.
func BenchmarkServerModel(b *testing.B) {
	spec := hw.Nehalem()
	cfg := hw.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hw.MaxRate(spec, hw.Route, 64, cfg)
	}
}
