package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/cluster"
	"routebricks/internal/elements"
	"routebricks/internal/exec"
	"routebricks/internal/lpm"
	"routebricks/internal/pkt"
)

// ipConfig is the standard IP forwarding path in the Click language.
// The trunk's last output is left dangling for Options.Sink; each error
// port has its own counting drop so nothing can vanish uncounted.
const ipConfig = `
	check :: CheckIPHeader;
	rt    :: LPMLookup(fib);
	ttl   :: DecIPTTL;
	check[0] -> rt;
	check[1] -> badhdr;
	rt[0]    -> ttl;
	rt[1]    -> badroute;
	ttl[1]   -> badttl;
`

const (
	workset     = 512 // packets recycled through the in-process loop
	memBurst    = 32  // packets per feeder visit
	sampleEvery = 128 // every 128th delivered packet is stamped and timed round the loop
	verifyEvery = 64  // every 64th delivered packet gets the full check

	fwdRoutes    = 8       // mem_fwd64: cache-resident FIB
	churnRoutes  = 1 << 20 // mem_churn: 2^20 random routes plus a default
	churnDsts    = 1 << 16 // mem_churn: destinations cycled through, so lookups stay cold
	churnBatch   = 256     // routes per add or withdraw commit
	churnCadence = 100 * time.Millisecond
)

// memInputs is what a mem workload feeds the pipeline: the routes its
// FIB is built from, the 512-packet workset, and — for mem_churn — the
// destinations written into the workset on every trip.
type memInputs struct {
	routes []routebricks.Route
	fs     *frameSet
	dsts   []uint32
}

func buildMemInputs(wl *workload, seed int64) *memInputs {
	in := &memInputs{
		routes: cluster.SeedRoutes(fwdRoutes),
		fs:     buildFrames(seed, frameConfig{sizes: wl.sizes, prefixes: fwdRoutes, ingress: 1}),
	}
	if wl.churn {
		in.routes = lpm.RandomTable(churnRoutes, 8, seed, true)
		rng := rand.New(rand.NewSource(seed ^ 0xd57))
		in.dsts = make([]uint32, churnDsts)
		for i := range in.dsts {
			// Stay clear of 100.64.0.0/16, where the writer adds and
			// withdraws routes: a destination there would change next hop
			// mid-run and could not be checked.
			for in.dsts[i] = rng.Uint32(); in.dsts[i]>>16 == 100<<8|64; {
				in.dsts[i] = rng.Uint32()
			}
		}
	}
	return in
}

// memSink terminates one chain: it checks what the graph did to each
// packet, counts it, and returns it to the chain's free ring for the
// feeder to send round again. It runs on the chain's core, which makes
// it the free ring's single producer and the only writer of its fields
// until the pipeline has stopped.
type memSink struct {
	run       *memRun
	free      *exec.Ring
	delivered atomic.Uint64
	seen      uint64
	bad       uint64
	firstBad  string
	lat       [][]uint32 // ns, per slice of the measured window the packet was pushed in
}

func (s *memSink) InPorts() int  { return 1 }
func (s *memSink) OutPorts() int { return 0 }

func (s *memSink) Push(ctx *click.Context, port int, p *pkt.Packet) { pushOne(s, ctx, port, p) }

// pushOne is the per-packet entry of the benchmark's own batch-native
// terminals; the graph reaches them through PushBatch.
func pushOne(e click.BatchElement, ctx *click.Context, port int, p *pkt.Packet) {
	b := pkt.NewBatch(1)
	b.Add(p)
	e.PushBatch(ctx, port, b)
}

func (s *memSink) PushBatch(_ *click.Context, _ int, b *pkt.Batch) {
	n := b.Compact()
	if n == 0 {
		return
	}
	for _, p := range b.Packets() {
		s.check(p)
		if p.Arrival != 0 {
			s.sample(p)
		}
		if s.seen%sampleEvery == 0 {
			p.Arrival = s.run.now()
		}
	}
	s.delivered.Add(uint64(n))
	if pushed := s.free.PushBatch(b); pushed < n {
		s.fail(fmt.Sprintf("free ring took %d of %d packets", pushed, n))
	}
	b.Reset()
}

// sample books one trip round the closed loop: from the delivery that
// stamped the packet, through the free ring, the feeder, the steering
// table, the input ring and the graph, to this delivery. With a fixed
// workset that is the loop's latency the way send → sink is on the wire:
// its median is workset ÷ throughput, its tail shows the stalls.
func (s *memSink) sample(p *pkt.Packet) {
	if start := s.run.winStart.Load(); p.Arrival >= start {
		i := int((p.Arrival - start) / int64(sliceLen))
		for len(s.lat) <= i {
			s.lat = append(s.lat, nil)
		}
		s.lat[i] = append(s.lat[i], uint32(min(s.run.now()-p.Arrival, 1<<32-1)))
	}
	p.Arrival = 0
}

// check is cheap on every packet — the TTL was decremented once and the
// lookup picked the expected next hop — and complete on every 64th:
// valid checksum and every byte the router must not touch intact.
func (s *memSink) check(p *pkt.Packet) {
	s.seen++
	ih := p.IPv4()
	if ih.TTL() != sentTTL-1 || p.NextHop != int(p.SeqNo) {
		s.fail(fmt.Sprintf("TTL %d next hop %d, want TTL %d next hop %d", ih.TTL(), p.NextHop, sentTTL-1, p.SeqNo))
		return
	}
	if s.seen%verifyEvery != 0 {
		return
	}
	orig := s.run.in.fs.frames[p.InputPort].p.Data
	const ipOff = pkt.EtherHdrLen
	if !ih.VerifyChecksum() || len(p.Data) != len(orig) ||
		!slices.Equal(p.Data[:ipOff+8], orig[:ipOff+8]) || // Ethernet header, IPv4 up to the TTL
		!slices.Equal(p.Data[ipOff+12:ipOff+16], orig[ipOff+12:ipOff+16]) || // source address
		!slices.Equal(p.Data[ipOff+pkt.IPv4HdrLen:], orig[ipOff+pkt.IPv4HdrLen:]) { // UDP header and payload
		s.fail("checksum invalid or bytes changed in flight")
	}
}

func (s *memSink) fail(msg string) {
	if s.bad++; s.firstBad == "" {
		s.firstBad = msg
	}
}

// memRun is one Load → Start of the pipeline under test and the feeder
// state around it.
type memRun struct {
	wl    *workload
	in    *memInputs
	fib   *routebricks.RouteAdmin
	pipe  *routebricks.Pipeline
	sinks []*memSink
	drops atomic.Uint64 // packets that reached an error port
	hops  []int         // expected next hop per churn destination

	epoch    time.Time
	winStart atomic.Int64
	marks    []uint64 // delivered count at each slice boundary of the measured window
	scratch  *pkt.Batch
	pushed   uint64
	dstNext  int
}

func (m *memRun) now() int64 { return int64(time.Since(m.epoch)) }

// setUp is the timed part: table build, Load, Start — the point from
// which the first packet may be pushed. A stepped workload has no cores
// to start: its feeder runs each quantum itself.
func (m *memRun) setUp() (time.Duration, error) {
	start := time.Now()
	fib, err := routebricks.NewFIB(m.in.routes...)
	if err != nil {
		return 0, err
	}
	m.fib, m.sinks = fib, nil
	m.pipe, err = routebricks.Load(ipConfig, routebricks.Options{
		Cores:     m.wl.memCores,
		Placement: routebricks.Parallel,
		KP:        32,
		FIB:       fib,
		Prebound: func(int) map[string]routebricks.Element {
			drop := func() routebricks.Element {
				return &elements.Sink{
					Fn:      func(*click.Context, *pkt.Packet) { m.drops.Add(1) },
					Recycle: pkt.DefaultPool,
				}
			}
			return map[string]routebricks.Element{"badhdr": drop(), "badroute": drop(), "badttl": drop()}
		},
		Sink: func(int) routebricks.Element {
			s := &memSink{run: m, free: exec.NewRing(workset)}
			m.sinks = append(m.sinks, s)
			return s
		},
	})
	if err != nil {
		return 0, err
	}
	if !m.wl.stepped {
		if err := m.pipe.Start(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// seed hands the workset to the free rings, from where the feeder picks
// it up. The workset is the first 512 frames of the set; InputPort
// remembers which, SeqNo carries the next hop the sink should see.
func (m *memRun) seed() {
	if m.wl.churn {
		m.hops = make([]int, len(m.in.dsts))
		for i, d := range m.in.dsts {
			m.hops[i] = m.fib.Lookup(netip.AddrFrom4([4]byte{byte(d >> 24), byte(d >> 16), byte(d >> 8), byte(d)}))
		}
	}
	for i := 0; i < workset; i++ {
		f := &m.in.fs.frames[i]
		f.p.InputPort = i
		f.p.SeqNo = uint64(f.owner)
		m.sinks[i%len(m.sinks)].free.Push(f.p)
	}
}

// feed is the closed loop: take delivered packets off the free rings,
// make each a fresh arrival, and push it through the steering table.
func (m *memRun) feed(d time.Duration) {
	start := m.now()
	end := start + int64(d)
	for {
		now := m.now()
		if now >= end {
			return
		}
		if m.marks != nil && now >= start+int64(len(m.marks))*int64(sliceLen) {
			m.marks = append(m.marks, m.delivered())
		}
		moved := 0
		for _, s := range m.sinks {
			m.scratch.Reset()
			n := s.free.PopBatchInto(m.scratch, memBurst)
			if n == 0 {
				continue
			}
			moved += n
			for _, p := range m.scratch.Packets() {
				m.refresh(p)
				for !m.pipe.PushFlow(p) {
					runtime.Gosched()
				}
			}
			m.pushed += uint64(n)
			if m.wl.stepped {
				m.pipe.Step()
			}
		}
		if moved == 0 {
			runtime.Gosched()
		}
	}
}

// refresh undoes the last trip and, like a packet fresh off the wire,
// arrives with no cached flow hash. mem_churn also moves it to the next
// destination, so consecutive lookups share no cache lines.
func (m *memRun) refresh(p *pkt.Packet) {
	ih := p.IPv4()
	ih.SetTTL(sentTTL)
	if m.wl.churn {
		binary.BigEndian.PutUint32(ih[16:20], m.in.dsts[m.dstNext])
		p.SeqNo = uint64(m.hops[m.dstNext])
		if m.dstNext++; m.dstNext == len(m.in.dsts) {
			m.dstNext = 0
		}
	}
	ih.UpdateChecksum()
	p.InvalidateFlowHash()
}

func (m *memRun) delivered() uint64 {
	var n uint64
	for _, s := range m.sinks {
		n += s.delivered.Load()
	}
	return n
}

// commit is one FIB update the churner made: when, and how long it took.
type commit struct {
	at int64 // ns since the run's epoch
	ms float64
}

// churner commits alternating add and withdraw batches on a fixed
// cadence until stop closes, timing each commit. Its results are read
// only after it has returned.
func (m *memRun) churner(stop <-chan struct{}) ([]commit, error) {
	var commits []commit
	adds := make([]routebricks.Route, churnBatch)
	dels := make([]netip.Prefix, churnBatch)
	for i := range adds {
		adds[i] = routebricks.Route{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24),
			NextHop: i % 8,
		}
		dels[i] = adds[i].Prefix
	}
	tick := time.NewTicker(churnCadence)
	defer tick.Stop()
	for present := false; ; present = !present {
		start := time.Now()
		var err error
		if present {
			_, err = m.fib.Update(nil, dels)
		} else {
			_, err = m.fib.Update(adds, nil)
		}
		if err != nil {
			return commits, err
		}
		commits = append(commits, commit{at: m.now(), ms: float64(time.Since(start)) / 1e6})
		select {
		case <-stop:
			return commits, nil
		case <-tick.C:
		}
	}
}

// runMem drives one in-process workload: Load → Start (setup_s) →
// warm-up, discarded → measured window → drain → Stop, then the set-up
// alone a few more times for its median. It returns the stopped run so
// a traced pass can reuse its inputs and FIB.
func runMem(wl *workload, seed int64, window time.Duration) (*result, *memRun, error) {
	res := newResult(wl, seed)
	// The peak resident set is the process's, and the process may have run
	// another workload before this one: give back what that left behind
	// and restart the kernel's high-water mark (where it lets us).
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	m := &memRun{wl: wl, in: buildMemInputs(wl, seed), epoch: time.Now(), scratch: pkt.NewBatch(memBurst)}
	m.winStart.Store(1<<63 - 1)
	setup, err := m.setUp()
	if err != nil {
		return nil, nil, err
	}
	m.seed()

	stopChurn := make(chan struct{})
	churnDone := make(chan struct{})
	var commits []commit
	var churnErr error
	if wl.churn {
		go func() {
			defer close(churnDone)
			commits, churnErr = m.churner(stopChurn)
		}()
	} else {
		close(churnDone)
	}

	m.feed(warmUp(window))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	snap0 := m.pipe.Snapshot()
	user0, sys0 := selfCPU()
	delivered0, pushed0 := m.delivered(), m.pushed
	t0 := m.now()
	m.winStart.Store(t0)
	m.marks = []uint64{delivered0}
	m.feed(window)
	t1 := m.now()
	delivered1, pushed1 := m.delivered(), m.pushed
	user1, sys1 := selfCPU()
	snap1 := m.pipe.Snapshot()
	runtime.ReadMemStats(&ms1)
	hwm, _, err := statusFields("/proc/self/status")
	if err != nil {
		return nil, nil, err
	}

	close(stopChurn)
	<-churnDone
	// Drain: everything pushed must come out of a sink.
	for deadline := time.Now().Add(2 * time.Second); m.delivered()+m.drops.Load() < m.pushed && time.Now().Before(deadline); {
		if wl.stepped {
			m.pipe.Step()
		}
		runtime.Gosched()
	}
	m.pipe.Stop()
	if churnErr != nil {
		return nil, nil, fmt.Errorf("route update: %w", churnErr)
	}

	// As on the wire: throughput and latency are medians over slices,
	// CPU per packet a ratio of whole-window sums.
	pkts := float64(delivered1 - delivered0)
	var mpps []float64
	for i := 1; i < len(m.marks); i++ {
		mpps = append(mpps, float64(m.marks[i]-m.marks[i-1])/sliceLen.Seconds()/1e6)
	}
	lats := make([][]uint32, len(m.marks))
	for _, s := range m.sinks {
		for i, l := range s.lat[:min(len(s.lat), len(lats))] {
			lats[i] = append(lats[i], l...)
		}
	}
	e := res.Metrics
	e["fwd_mpps"] = median(mpps)
	e["fwd_gbps"] = e["fwd_mpps"] * float64(len(m.in.fs.frames[0].p.Data)) * 8 / 1e3
	e["cpu_us_per_pkt"] = ratio(((user1+sys1)-(user0+sys0))*1e6, pkts)
	var allLat []uint32
	e["lat_p50_us"], e["lat_p99_us"], allLat = latSummary(lats)
	e["rss_peak_mb"] = float64(hwm) / 1024
	latencyTail(e, allLat)
	res.Slices = mpps

	// Closed loop over a fixed workset: whatever was pushed in the window
	// and not delivered in it is still circulating, except for at most
	// one workset in flight at either edge.
	res.Attempted = pushed1 - pushed0
	total, drops := m.delivered(), m.drops.Load()
	res.Failed = m.pushed - min(total, m.pushed)
	e["loss_ratio"] = lossRatio(m.pushed, total)
	if total != m.pushed {
		res.fail("sinks delivered %d packets, %d were pushed (%d reached an error port)", total, m.pushed, drops)
	}
	for chain, s := range m.sinks {
		if s.bad > 0 {
			res.fail("chain %d: %d delivered packets failed the check, first: %s", chain, s.bad, s.firstBad)
		}
	}
	res.checkLoss()

	d := snap1.Delta(snap0)
	var packets, polls, empty float64
	for _, c := range d.CoreStats {
		packets += float64(c.Packets)
		polls += float64(c.Polls)
		empty += float64(c.Empty)
	}
	e["click.poll_fill"] = ratio(packets, polls-empty)
	e["click.empty_poll_ratio"] = ratio(empty, polls)
	e["exec.ring_rejected"] = float64(d.Rejected)
	e["rss.imbalance"] = d.Imbalance
	e["lpm.generations"] = float64(snap1.FIBGeneration - snap0.FIBGeneration)
	var commitMs []float64
	for _, c := range commits {
		if c.at >= t0 && c.at < t1 {
			commitMs = append(commitMs, c.ms)
		}
	}
	e["lpm.commit_ms_p50"] = median(commitMs)
	e["mem.allocs_per_pkt"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), pkts)
	e["proc.kernel_cpu_share"] = ratio(sys1-sys0, (user1+sys1)-(user0+sys0))

	// The peak-memory reading above was taken first, so the tables the
	// repeated set-ups build do not count towards it.
	e["setup_s"], err = medianSetup(setup, func() (time.Duration, error) {
		again := &memRun{wl: wl, in: m.in, epoch: m.epoch}
		d, err := again.setUp()
		if err == nil {
			again.pipe.Stop()
		}
		return d, err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}
