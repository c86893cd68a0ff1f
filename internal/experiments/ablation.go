package experiments

import (
	"fmt"
	"time"

	"routebricks/internal/click"
	"routebricks/internal/cluster"
	"routebricks/internal/elements"
	"routebricks/internal/exec"
	"routebricks/internal/hw"
	"routebricks/internal/lpm"
	"routebricks/internal/sim"
	"routebricks/internal/topo"
	"routebricks/internal/trafficgen"
)

// AblationBatching sweeps the (kp, kn) batching grid beyond the three
// points of Table 1, quantifying each knob's marginal value — the
// design-choice ablation DESIGN.md calls out.
func AblationBatching() *Report {
	r := &Report{
		ID:    "ablation-batch",
		Title: "Batching sweep: 64 B forwarding rate (Gbps) by kp × kn",
		Head:  []string{"kp \\ kn", "1", "2", "4", "8", "16"},
	}
	spec := hw.Nehalem()
	for _, kp := range []int{1, 2, 4, 8, 16, 32} {
		row := []any{fmt.Sprintf("%d", kp)}
		for _, kn := range []int{1, 2, 4, 8, 16} {
			res := hw.MaxRate(spec, hw.Forward, 64, hw.Config{KP: kp, KN: kn, MultiQueue: true})
			row = append(row, res.Gbps)
		}
		r.Add(row...)
	}
	r.Notes = append(r.Notes,
		"diminishing returns in both dimensions; the paper's kp=32, kn=16 sits near the plateau")
	return r
}

// AblationFlowletDelta sweeps the flowlet timeout δ, showing why the
// paper's 100 ms "works well": small δ fragments flows across paths and
// reintroduces reordering.
func AblationFlowletDelta(quick bool) *Report {
	r := &Report{
		ID:    "ablation-delta",
		Title: "Flowlet timeout sweep: reordering vs δ (single-pair overload)",
		Head:  []string{"delta", "measured reordering", "new flowlets"},
	}
	deltas := []sim.Time{100 * sim.Microsecond, sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond}
	dur := 20 * sim.Millisecond
	if quick {
		dur = 6 * sim.Millisecond
		deltas = []sim.Time{100 * sim.Microsecond, 10 * sim.Millisecond}
	}
	for _, delta := range deltas {
		cfg := cluster.RB4Config()
		cfg.Seed = 11
		cfg.Delta = delta
		cfg.FitCapBps = 3e9
		c, err := cluster.New(cfg)
		if err != nil {
			r.Notes = append(r.Notes, "error: "+err.Error())
			return r
		}
		w := cluster.Workload{
			OfferedBpsPerNode: 8e9,
			Sizes:             trafficgen.AbileneMix(),
			InputNodes:        []int{0},
			OutputNodes:       []int{3},
			Duration:          dur,
			Seed:              11,
		}
		w.Apply(c)
		c.Run(dur + sim.Millisecond)
		c.Drain(20 * sim.Millisecond)
		_, _, _, newFl, _ := c.BalancerStats()
		r.Add(time.Duration(delta).String(), fmt.Sprintf("%.4f%%", 100*c.Meter.Fraction()), newFl)
	}
	return r
}

// AblationTopo reproduces the §3.3 design decision: the k-ary n-fly vs
// the torus family. The torus avoids intermediate servers but its fanout
// and per-server transit processing explode with scale.
func AblationTopo() *Report {
	r := &Report{
		ID:    "ablation-topo",
		Title: "n-fly vs torus (current servers, R = 10 Gbps)",
		Head: []string{"N ports", "n-fly servers", "torus fanout fits?",
			"torus ports needed", "torus processing vs 3R budget"},
		Notes: []string{"the paper experimented with both families and chose the n-fly " +
			"(§3.3); the torus either exceeds the port budget or demands multiples of the " +
			"3R per-server processing budget for transit hops"},
	}
	cfg := topo.Current()
	for n := 64; n <= 2048; n *= 4 {
		d, err := topo.Plan(cfg, n, 10)
		nfly := "-"
		if err == nil {
			nfly = fmt.Sprintf("%d", d.Servers)
		}
		t, ok := topo.TorusFeasible(cfg, n, 10)
		if ok {
			r.Add(n, nfly, "yes",
				fmt.Sprintf("%d (k=%d, n=%d)", t.PortsUsed, t.Radix, t.Dims),
				fmt.Sprintf("%.1fx", t.ProcFactor))
		} else {
			r.Add(n, nfly, "no", fmt.Sprintf("> %d available", cfg.Fanout1G()), "-")
		}
	}
	return r
}

// AblationTxTimeout implements and evaluates the feature the paper left
// as future work (§4.2: "increased latency can be alleviated by using a
// timeout to limit the amount of time a packet can wait to be 'batched'
// — we have yet to implement this feature in our driver"): sweep the NIC
// batch timeout at a low offered rate and measure latency.
func AblationTxTimeout(quick bool) *Report {
	r := &Report{
		ID:    "ablation-txtimeout",
		Title: "NIC batch timeout vs latency at low rate (the paper's future-work feature)",
		Head:  []string{"tx timeout", "mean latency µs", "p99 µs"},
		Notes: []string{"at low rates packets otherwise wait for a full kn=16 batch; " +
			"the timeout trades a little batching efficiency for bounded latency"},
	}
	timeouts := []sim.Time{2 * sim.Microsecond, 13 * sim.Microsecond, 50 * sim.Microsecond, 200 * sim.Microsecond}
	dur := 10 * sim.Millisecond
	if quick {
		dur = 4 * sim.Millisecond
		timeouts = []sim.Time{2 * sim.Microsecond, 200 * sim.Microsecond}
	}
	for _, to := range timeouts {
		cfg := cluster.RB4Config()
		cfg.Seed = 31
		cfg.TxTimeout = to
		c, err := cluster.New(cfg)
		if err != nil {
			r.Notes = append(r.Notes, "error: "+err.Error())
			return r
		}
		w := cluster.Workload{
			OfferedBpsPerNode: 0.2e9, // far below saturation: batches rarely fill
			Sizes:             trafficgen.Fixed(64),
			ExcludeSelf:       true,
			Duration:          dur,
			Seed:              31,
		}
		w.Apply(c)
		c.Run(dur + sim.Millisecond)
		c.Drain(20 * sim.Millisecond)
		r.Add(time.Duration(to).String(), c.Latency.Mean(), c.Latency.Quantile(0.99))
	}
	return r
}

// Profile reproduces the style of the paper's VTune-based CPU
// accounting (§4.1, Table 3): the IP-router pipeline is instrumented
// with the click profiler and the per-element calibrated cycle costs are
// broken down per packet.
func Profile() *Report {
	r := &Report{
		ID:    "profile",
		Title: "Per-element CPU cost of the IP-routing pipeline (64 B, calibrated cycles)",
		Head:  []string{"element", "cycles/pkt", "share"},
		Notes: []string{"the analog of the paper's VTune instrumentation, over virtual cycles: " +
			"poll+forwarding book-keeping dominates, the route lookup adds its fixed cost — the " +
			"decomposition behind Table 3's 1512 instructions/packet"},
	}
	rt := lpm.NewDir248()
	if err := lpm.Build(rt, lpm.RandomTable(4096, 8, 3, true)); err != nil {
		r.Notes = append(r.Notes, "error: "+err.Error())
		return r
	}
	rt.Freeze()

	ring := exec.NewRing(64)
	router := click.NewRouter()
	poll := elements.NewPollDevice(ring, 32)
	look := elements.NewLPMLookup(rt)
	router.MustAdd("poll", poll)
	router.MustAdd("check", &elements.CheckIPHeader{})
	router.MustAdd("lookup", look)
	router.MustAdd("ttl", &elements.DecIPTTL{})
	router.MustAdd("tx", elements.NewToDevice(exec.NewRing(1<<16), 16))
	router.MustAdd("drop", &elements.Discard{})
	router.MustConnect("poll", 0, "check", 0)
	router.MustConnect("check", 0, "lookup", 0)
	router.MustConnect("check", 1, "drop", 0)
	router.MustConnect("lookup", 0, "ttl", 0)
	router.MustConnect("lookup", 1, "drop", 0)
	router.MustConnect("ttl", 0, "tx", 0)
	router.MustConnect("ttl", 1, "drop", 0)
	prof := click.NewProfiler()
	router.Instrument(prof)

	src := trafficgen.New(trafficgen.Config{Seed: 4, Sizes: trafficgen.Fixed(64), RandomDst: true})
	ctx := &click.Context{}
	const n = 32 * 256
	fed := 0
	for fed < n {
		for ring.Len() < 32 && fed < n {
			ring.Push(src.Next())
			fed++
		}
		fi := ctx.BeginFrame()
		poll.Run(ctx)
		prof.Account("poll", ctx.EndFrame(fi), 32)
	}
	total := prof.TotalCycles()
	for _, s := range prof.Stats() {
		if s.Packets == 0 {
			continue
		}
		r.Add(s.Name, s.Cycles/float64(n), fmt.Sprintf("%.1f%%", 100*s.Cycles/total))
	}
	r.Add("total", total/float64(n), "100%")
	return r
}

// AblationLPM compares the DIR-24-8 engine against the binary-trie
// baseline on a 256K-route table: build cost, memory, and a live lookup
// timing on this host (wall-clock, so indicative only).
func AblationLPM() *Report {
	r := &Report{
		ID:    "ablation-lpm",
		Title: "LPM engines on a 256K-route table",
		Head:  []string{"engine", "build ms", "lookup ns/op (host)", "memory MB"},
	}
	routes := lpm.RandomTable(256*1024, 16, 7, true)

	measure := func(name string, e lpm.Engine, mem int) {
		t0 := time.Now()
		if err := lpm.Build(e, routes); err != nil {
			r.Notes = append(r.Notes, "error: "+err.Error())
			return
		}
		if d, ok := e.(*lpm.Dir248); ok {
			d.Freeze()
		}
		build := time.Since(t0)

		probes := make([]uint32, 4096)
		s := uint32(2463534242)
		for i := range probes {
			s ^= s << 13
			s ^= s >> 17
			s ^= s << 5
			probes[i] = s
		}
		const iters = 200000
		t1 := time.Now()
		sink := 0
		for i := 0; i < iters; i++ {
			sink += e.Lookup(probes[i&4095])
		}
		perOp := time.Since(t1).Nanoseconds() / iters
		_ = sink
		r.Add(name, float64(build.Milliseconds()), perOp, float64(mem)/1e6)
	}

	d := lpm.NewDir248()
	measure("dir-24-8", d, d.MemoryFootprint())
	// Trie memory: ~2 nodes per route × ~48 B/node, an estimate.
	measure("binary trie", lpm.NewTrie(), 256*1024*2*48)
	r.Notes = append(r.Notes,
		"host wall-clock timings vary by machine; the DIR-24-8 advantage (one memory access "+
			"for ≤/24 prefixes) is the paper's reason for using D-lookup")
	return r
}
