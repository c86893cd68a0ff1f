package main

import "routebricks/internal/trafficgen"

// This file is the benchmark's contract in code: the workloads and the
// metrics, under the names BENCHMARK.json lists them by. The self-test
// holds the two in step.

// defaultSeconds is the measured window when -seconds is not given;
// BENCHMARK.json's run_seconds is the same number.
const defaultSeconds = 12

// workload is one set of inputs and the load shape they are driven with.
type workload struct {
	name, why string

	// Wire workloads drive rbrouter processes; the others drive
	// routebricks.Load in-process.
	wire        bool
	members     int  // mesh size
	spread      bool // flows enter at src % members and aim at every member's prefix
	slowShare   float64
	openLoopPPS int // 0: closed loop
	sizes       trafficgen.SizeDist

	memCores int
	// stepped drives the pipeline with Step() on the feeder's goroutine
	// instead of Start(): the same layers, with no second goroutine.
	stepped bool
	churn   bool // 2^20-route FIB, cold destinations, a writer committing beside the readers
}

func (w *workload) frameConfig() frameConfig {
	cfg := frameConfig{sizes: w.sizes, prefixes: 1, ingress: 1, slowShare: w.slowShare}
	if w.spread {
		cfg.prefixes, cfg.ingress = w.members, w.members
	}
	return cfg
}

var workloads = []workload{
	{
		name: "wire_fwd64",
		why:  "one rbrouter does rx, steer, graph, tx queue, tx on 64 B frames, closed loop: per-packet wire cost dominates, the graph is ~1%",
		wire: true, members: 2, sizes: trafficgen.Fixed(64),
	},
	{
		name: "wire_lat",
		why:  "same frames, open loop at 50 kpps, a quarter of capacity: idle back-off sleeps and batch-fill waits set latency and CPU that saturation hides",
		wire: true, members: 2, sizes: trafficgen.Fixed(64), openLoopPPS: openLoopPPS,
	},
	{
		name: "wire_mesh3",
		why:  "3 members, uniform matrix, Abilene sizes, 1% slow path: VLB routing, transit hops, contended tx queues, large copies and every counted drop site",
		wire: true, members: 3, spread: true, slowShare: 0.01, sizes: trafficgen.AbileneMix(),
	},
	{
		name:  "mem_fwd64",
		why:   "Load pipeline in-process, stepped on one goroutine, 8-route FIB, wire bypassed: hash, steer, ring, click dispatch, elements; no wire change should move it",
		sizes: trafficgen.Fixed(64), memCores: 1, stepped: true,
	},
	{
		name:  "mem_churn",
		why:   "same loop started on 2 cores over a 2^20-route FIB with cold destinations while a writer commits route batches: lookups beside updates, ring handoffs, costly set-up",
		sizes: trafficgen.Fixed(64), memCores: 2, churn: true,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the router sees. Every workload reports
// every one of them. A bound is what the 2-CPU reference host can
// resolve: at least three times the run-to-run spread (quartile distance
// over median, ten seeds) typical of the metric's noisiest workload, and
// twice the widest drift seen between two ten-seed sets taken half an
// hour apart (10%), capped at the contract's 0.25. README.md has the
// measurements.
var endToEnd = []metricSpec{
	{"fwd_mpps", "Mpps", "higher", 0.20},
	{"fwd_gbps", "Gbit/s", "higher", 0.20},
	{"cpu_us_per_pkt", "us", "lower", 0.20},
	{"lat_p50_us", "us", "lower", 0.20},
	{"lat_p99_us", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is informational and never gated. A layer that does no work
// in a workload reads 0 there.
var perLayer = []metricSpec{
	{Name: "loss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "lat_p9999_us", Unit: "us", Better: "lower"},
	{Name: "lat_samples", Unit: "count", Better: "higher"},
	{Name: "netio.rx_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netio.tx_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "netio.rx_fill", Unit: "pkt/syscall", Better: "higher"},
	{Name: "netio.tx_fill", Unit: "pkt/syscall", Better: "higher"},
	{Name: "netio.rx_truncated", Unit: "count", Better: "lower"},
	{Name: "steer.pushflow_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "rss.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "click.step_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "click.poll_fill", Unit: "pkt/poll", Better: "higher"},
	{Name: "click.empty_poll_ratio", Unit: "ratio", Better: "lower"},
	{Name: "elements.checkip_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "elements.lpm_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "elements.decttl_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "exec.ring_rejected", Unit: "count", Better: "lower"},
	{Name: "exec.txq_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "node.rx_drops", Unit: "count", Better: "lower"},
	{Name: "node.tx_stalls", Unit: "count", Better: "lower"},
	{Name: "node.tx_drained", Unit: "count", Better: "lower"},
	{Name: "node.header_drops", Unit: "count", Better: "lower"},
	{Name: "node.route_misses", Unit: "count", Better: "lower"},
	{Name: "node.unaccounted_pkts", Unit: "count", Better: "lower"},
	{Name: "vlb.route_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "vlb.hops_per_pkt", Unit: "hops", Better: "lower"},
	{Name: "vlb.reorder_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pkt.pool_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "pkt.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.allocs_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "lpm.commit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "lpm.generations", Unit: "count", Better: "higher"},
	{Name: "proc.kernel_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.ctx_switches_per_kpkt", Unit: "1/kpkt", Better: "lower"},
	{Name: "gen.cpu_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "gen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.budget_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
