package main

import (
	"slices"
	"time"

	"routebricks/internal/stats"
)

// wireSnap is everything read from outside the member processes at one
// instant: their admin-API counters and their /proc figures, plus the
// generator's own CPU.
type wireSnap struct {
	nodes           []stats.NodeStats
	proc            procSample
	genUser, genSys float64
}

func takeWireSnap(m *memberMesh) (wireSnap, error) {
	var s wireSnap
	var err error
	if s.nodes, err = m.nodeStats(); err != nil {
		return s, err
	}
	if s.proc, err = m.proc(); err != nil {
		return s, err
	}
	s.genUser, s.genSys = selfCPU()
	return s, nil
}

// runWire drives one wire workload against freshly spawned rbrouter
// processes: spawn → ready (setup_s) → warm-up, discarded → measured
// window → drain → SIGTERM, then the set-up alone a few more times for
// its median.
func runWire(env *runEnv, wl *workload, seed int64, window time.Duration) (*result, error) {
	res := newResult(wl, seed)
	fs := buildFrames(seed, wl.frameConfig())

	// The generator's socket is the topology sink, so it exists first;
	// the ext addresses are only known once a topology is generated.
	g, err := newGenerator(fs)
	if err != nil {
		return nil, err
	}
	defer g.close()
	m, setup, err := startMesh(env.routerBin, env.workDir, wl.members, g.sinkAddr())
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			m.stop(true) // an error path: keep the logs
		}
	}()
	for _, mb := range m.topo.Members {
		if err := g.addMember(mb.Ext); err != nil {
			return nil, err
		}
	}

	load := g.closedLoop
	if wl.openLoopPPS > 0 {
		load = func(d time.Duration) error { return g.openLoop(d, wl.openLoopPPS) }
	}
	if err := load(warmUp(window)); err != nil {
		return nil, err
	}
	before, err := takeWireSnap(m)
	if err != nil {
		return nil, err
	}
	g.beginWindow()
	if err := load(window); err != nil {
		return nil, err
	}
	g.endWindow()
	after, err := takeWireSnap(m)
	if err != nil {
		return nil, err
	}
	if err := g.drain(); err != nil {
		return nil, err
	}
	final, err := takeWireSnap(m)
	if err != nil {
		return nil, err
	}
	m.stop(false)
	stopped = true

	// Gated numbers need the environment the bounds were set in.
	for _, n := range final.nodes {
		if n.Ingress.Wire == nil || n.Ingress.Wire.Mode != "mmsg" {
			res.unresolved("member %d runs wire.mode fallback, not mmsg", n.ID)
		}
		if n.Restripes != 0 {
			res.fail("member %d re-striped the mesh %d times mid-run: a peer was declared dead", n.ID, n.Restripes)
		}
	}
	res.Env["wire.mode"] = final.nodes[0].Ingress.Wire.Mode

	// Throughput and latency are medians over the window's full slices
	// (the last one is cut short by the window's end); CPU per packet is
	// a ratio of two whole-window sums, which a disturbed slice moves in
	// numerator and denominator alike.
	var pkts float64
	var mpps, gbps []float64
	var lats [][]uint32
	for i, sl := range g.slices {
		pkts += float64(sl.recv)
		lats = append(lats, sl.lat)
		if int64(i+1)*int64(sliceLen) <= g.winEnd-g.winStart {
			mpps = append(mpps, float64(sl.recv)/sliceLen.Seconds()/1e6)
			gbps = append(gbps, float64(sl.bytes)*8/sliceLen.Seconds()/1e9)
		}
	}
	e := res.Metrics
	e["fwd_mpps"] = median(mpps)
	e["fwd_gbps"] = median(gbps)
	cpu := (after.proc.userSec + after.proc.sysSec) - (before.proc.userSec + before.proc.sysSec)
	e["cpu_us_per_pkt"] = ratio(cpu*1e6, pkts)
	var allLat []uint32
	e["lat_p50_us"], e["lat_p99_us"], allLat = latSummary(lats)
	e["rss_peak_mb"] = after.proc.hwmMB
	res.Attempted, res.Failed = g.sentStamped, g.sentStamped-min(g.recvStamped, g.sentStamped)
	e["loss_ratio"] = lossRatio(g.sentStamped, g.recvStamped)
	latencyTail(e, allLat)
	res.Slices = mpps

	// Counter deltas over the measured window, summed over members.
	var d struct {
		rxFrames, rxBatches, txFrames, txBatches, truncated float64
		packets, polls, empty                               float64
		rejected, rxDrops, stalls, drained                  float64
		forwarded, egressed                                 float64
		gets, hits                                          float64
		imbalance                                           float64
	}
	for i := range after.nodes {
		a, b := after.nodes[i], before.nodes[i]
		ing := a.Ingress.Delta(b.Ingress)
		if ing.Wire != nil {
			d.rxFrames += float64(ing.Wire.RxFrames)
			d.rxBatches += float64(ing.Wire.RxBatches)
			d.txFrames += float64(ing.Wire.TxFrames)
			d.txBatches += float64(ing.Wire.TxBatches)
			d.truncated += float64(ing.Wire.RxTruncated)
		}
		for _, c := range ing.CoreStats {
			d.packets += float64(c.Packets)
			d.polls += float64(c.Polls)
			d.empty += float64(c.Empty)
		}
		d.rejected += float64(ing.Rejected)
		d.gets += float64(ing.Pool.Gets)
		d.hits += float64(ing.Pool.Hits)
		d.imbalance = max(d.imbalance, ing.Imbalance)
		d.rxDrops += float64(a.RxDrops - b.RxDrops)
		d.stalls += float64(a.TxStalls - b.TxStalls)
		d.drained += float64(a.TxDrained - b.TxDrained)
		d.forwarded += float64(a.Forwarded - b.Forwarded)
		d.egressed += float64(a.Egressed - b.Egressed)
	}
	e["netio.rx_fill"] = ratio(d.rxFrames, d.rxBatches)
	e["netio.tx_fill"] = ratio(d.txFrames, d.txBatches)
	e["netio.rx_truncated"] = d.truncated
	e["click.poll_fill"] = ratio(d.packets, d.polls-d.empty)
	e["click.empty_poll_ratio"] = ratio(d.empty, d.polls)
	e["exec.ring_rejected"] = d.rejected
	e["node.rx_drops"] = d.rxDrops
	e["node.tx_stalls"] = d.stalls
	e["node.tx_drained"] = d.drained
	e["vlb.hops_per_pkt"] = ratio(d.forwarded+d.egressed, pkts)
	e["vlb.reorder_ratio"] = g.reorder.Fraction()
	e["pkt.pool_hit_ratio"] = ratio(d.hits, d.gets)
	e["rss.imbalance"] = d.imbalance
	dUser, dSys := after.proc.userSec-before.proc.userSec, after.proc.sysSec-before.proc.sysSec
	e["proc.kernel_cpu_share"] = ratio(dSys, dUser+dSys)
	e["proc.ctx_switches_per_kpkt"] = ratio(float64(after.proc.ctxSwitches-before.proc.ctxSwitches)*1e3, pkts)
	e["gen.cpu_us_per_pkt"] = ratio(((after.genUser+after.genSys)-(before.genUser+before.genSys))*1e6, pkts)
	slices.Sort(g.lag)
	e["gen.lag_p99_us"] = float64(percentile(g.lag, 99)) / 1e3

	// Whole-run totals, after the drain: the drop sites must have counted
	// exactly the slow-path frames that were sent, and every frame sent
	// must be delivered, counted as dropped, or still queued.
	var led ledger
	var hdrDrops, routeMisses uint64
	for _, n := range final.nodes {
		hdrDrops += n.HeaderDrops
		routeMisses += n.RouteMisses
		led.drops += n.HeaderDrops + n.RouteMisses + n.RxDrops + n.TxDrained + n.Ingress.Drops
		led.queued += uint64(n.Ingress.Queued + n.TransitQueued)
	}
	for _, n := range g.sentByKind {
		led.sent += n
	}
	led.delivered = g.recv
	e["node.header_drops"] = float64(hdrDrops)
	e["node.route_misses"] = float64(routeMisses)
	e["node.unaccounted_pkts"] = float64(led.unaccounted())
	if want := g.sentByKind[slowTTL] + g.sentByKind[slowChecksum]; hdrDrops != want {
		res.fail("header_drops is %d, but %d TTL-1 and bad-checksum frames were sent", hdrDrops, want)
	}
	if want := g.sentByKind[slowNoRoute]; routeMisses != want {
		res.fail("route_misses is %d, but %d unroutable frames were sent", routeMisses, want)
	}
	if g.violations > 0 {
		res.fail("%d delivered frames failed verification, first: %v", g.violations, g.firstErrs)
	}
	if g.srcChecked == 0 {
		res.fail("no delivered frame had its UDP source port checked")
	}
	if r := e["vlb.reorder_ratio"]; r > maxReorder {
		res.fail("reorder ratio %.4f exceeds %.2f", r, maxReorder)
	}
	res.checkLoss()

	e["setup_s"], err = medianSetup(setup, func() (time.Duration, error) {
		again, d, err := startMesh(env.routerBin, env.workDir, wl.members, g.sinkAddr())
		if err == nil {
			again.stop(false)
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
