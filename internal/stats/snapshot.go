package stats

// This file defines the unified observability schema of a loaded
// pipeline: one typed Snapshot of per-core counters, drops, ring state
// and element counters, shaped for JSON export (cmd/rbrouter serves it
// on its admin API) and for rate computation via Delta. The types are
// pure data — the routebricks facade fills them from a live plan;
// nothing here touches the datapath.

// CoreSnapshot is one core's counter block at snapshot time.
type CoreSnapshot struct {
	Core     int    `json:"core"`
	Chain    int    `json:"chain"`
	Stages   string `json:"stages"`
	Packets  uint64 `json:"packets"`
	Polls    uint64 `json:"polls"`
	Empty    uint64 `json:"empty"`
	Handoffs uint64 `json:"handoffs"`
}

// PoolSnapshot is the packet pool's freelist health: how many shards it
// runs, how many buffers sit idle (shards plus backing store), and the
// monotonic get/hit/put counters — all read from atomics, so snapshots
// never serialize the datapath. A hit rate near 1 means steady-state
// forwarding allocates nothing; double puts indicate an ownership bug.
type PoolSnapshot struct {
	Shards     int    `json:"shards"`
	Free       int    `json:"free"`
	Gets       uint64 `json:"gets"`
	Hits       uint64 `json:"hits"`
	Puts       uint64 `json:"puts"`
	DoublePuts uint64 `json:"double_puts"`
}

// RingSnapshot is one ring's state: Role is "input" (caller-fed) or
// "handoff" (inter-stage); Len/Cap are occupancy gauges, Rejected the
// monotonic backpressure counter. FromCore/ToCore are the producer and
// consumer cores (-1 for an input ring's external producer).
type RingSnapshot struct {
	Role     string `json:"role"`
	Chain    int    `json:"chain"`
	FromCore int    `json:"from_core"`
	ToCore   int    `json:"to_core"`
	Len      int    `json:"len"`
	Cap      int    `json:"cap"`
	Rejected uint64 `json:"rejected"`
}

// WireSnapshot is the process's kernel wire-I/O health (internal/netio
// readers and writers summed): which syscall path the sockets run
// ("mmsg" or "fallback"), how many syscalls moved traffic, and how many
// datagrams they moved — RxFrames/RxBatches and TxFrames/TxBatches are
// the mean syscall fill, the number batching exists to raise above 1.
// TxSends counts the messages those syscalls carried: on the mmsg path
// a run of equal-length datagrams to one destination is one UDP GSO
// message, so TxFrames/TxSends is the segments per send, 1 where
// nothing coalesced. RxTruncated counts received frames dropped as
// longer than the configured maximum (detectable on the mmsg path only).
//
// Coalesced receive: RxGROBuffers counts the datagrams the line ports'
// UDP GRO readers received and RxGROFrames the frames cut from them, so
// RxGROFrames/RxGROBuffers is the segments per GRO buffer. RxBundles
// counts the bundles the mesh socket received, TxBundles the bundles
// sent and TxBundled the frames they carried (TxBundled/TxBundles is
// the frames per bundle). RxMalformed counts frames dropped with a
// bundle that failed its checks, a datagram that is no bundle at all
// counting one. RxFrames and TxFrames count frames throughout.
type WireSnapshot struct {
	Mode         string `json:"mode"`
	RxBatches    uint64 `json:"rx_batches"`
	RxFrames     uint64 `json:"rx_frames"`
	RxTruncated  uint64 `json:"rx_truncated,omitempty"`
	RxMalformed  uint64 `json:"rx_malformed,omitempty"`
	RxGROBuffers uint64 `json:"rx_gro_buffers,omitempty"`
	RxGROFrames  uint64 `json:"rx_gro_frames,omitempty"`
	RxBundles    uint64 `json:"rx_bundles,omitempty"`
	TxBatches    uint64 `json:"tx_batches"`
	TxFrames     uint64 `json:"tx_frames"`
	TxSends      uint64 `json:"tx_sends"`
	TxBundles    uint64 `json:"tx_bundles,omitempty"`
	TxBundled    uint64 `json:"tx_bundled,omitempty"`
}

// ElementSnapshot carries one graph element's exported counters
// (harvested from the atomic Count/Packets/Bytes accessors elements
// expose).
type ElementSnapshot struct {
	Chain    int               `json:"chain"`
	Name     string            `json:"name"`
	Class    string            `json:"class"`
	Counters map[string]uint64 `json:"counters"`
}

// Snapshot is a consistent-enough point-in-time view of a running
// pipeline: plan identity (kind + generation, so observers can tell a
// reload happened), per-core counters, per-ring depth/capacity/
// backpressure, and per-element counters. Counters are monotonic within
// one generation; a Reload installs a fresh plan and resets them.
type Snapshot struct {
	Plan       string `json:"plan"`
	Generation uint64 `json:"generation"`
	Decision   string `json:"decision,omitempty"`
	Cores      int    `json:"cores"`
	Chains     int    `json:"chains"`

	Queued   int    `json:"queued"`
	Drops    uint64 `json:"drops"`
	Rejected uint64 `json:"rejected"`

	// Imbalance is the per-core load-skew ratio (see ImbalanceRatio):
	// cumulative for a plain Snapshot, per-interval after Delta. Flows
	// map to chains by a fixed hash, so skew reports the offered flow
	// mix; the datapath does not re-steer or re-place to answer it.
	Imbalance float64 `json:"imbalance"`

	// FIBGeneration and FIBRoutes describe the live FIB at snapshot
	// time — the number of committed route updates and the installed
	// route count. Both are gauges on the FIB, not plan counters: they
	// survive Reload (the FIB is shared across plan generations)
	// and Delta keeps their current values. Zero when the pipeline has
	// no live FIB bound.
	FIBGeneration uint64 `json:"fib_generation,omitempty"`
	FIBRoutes     int    `json:"fib_routes,omitempty"`

	// Pool is the process packet pool's freelist health at snapshot
	// time. Unlike the plan counters it is process-global: it does not
	// reset at generation boundaries.
	Pool PoolSnapshot `json:"pool"`

	// Wire is the kernel wire-I/O layer's counters, when the process
	// runs sockets through internal/netio (cmd/rbrouter attaches it).
	// Process-global monotonic, like Pool: it does not reset at plan
	// generation boundaries.
	Wire *WireSnapshot `json:"wire,omitempty"`

	CoreStats []CoreSnapshot    `json:"core_stats"`
	Rings     []RingSnapshot    `json:"rings"`
	Elements  []ElementSnapshot `json:"elements,omitempty"`
}

// ImbalanceRatio reduces the per-core packet counters to one skew
// number: the busiest core's packets over the all-core mean. 1.0 is a
// perfectly balanced plan, Cores is the worst case (all traffic on one
// core), and 0 means no traffic at all (no evidence of skew). The
// Imbalance field caches this value; Delta recomputes it over the
// interval's increments, which is the form to watch — cumulative
// ratios go stale as history accumulates.
func (s Snapshot) ImbalanceRatio() float64 {
	if len(s.CoreStats) == 0 {
		return 0
	}
	var total, max uint64
	for _, c := range s.CoreStats {
		total += c.Packets
		if c.Packets > max {
			max = c.Packets
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(s.CoreStats))
	return float64(max) / mean
}

// TotalPackets sums packets pulled across all cores — each packet
// counts once per core that handled it, so a pipelined plan reports
// roughly stages× the injected count.
func (s Snapshot) TotalPackets() uint64 {
	var n uint64
	for _, c := range s.CoreStats {
		n += c.Packets
	}
	return n
}

// Delta returns s with every monotonic counter replaced by its increase
// since prev — the rate view: divide by the wall-clock interval between
// the two snapshots for per-second rates. Gauges (Queued, ring Len/Cap)
// keep their current values. When prev belongs to a different plan or
// generation the counters restarted from zero mid-interval, so s is
// returned unchanged — callers detect the discontinuity by comparing
// Generation themselves.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	if s.Plan != prev.Plan || s.Generation != prev.Generation {
		s.Imbalance = s.ImbalanceRatio()
		return s
	}
	out := s
	out.Drops = sub(s.Drops, prev.Drops)
	out.Rejected = sub(s.Rejected, prev.Rejected)

	out.CoreStats = make([]CoreSnapshot, len(s.CoreStats))
	copy(out.CoreStats, s.CoreStats)
	if len(prev.CoreStats) == len(s.CoreStats) {
		for i := range out.CoreStats {
			p := prev.CoreStats[i]
			if p.Core != out.CoreStats[i].Core || p.Chain != out.CoreStats[i].Chain {
				continue
			}
			out.CoreStats[i].Packets = sub(out.CoreStats[i].Packets, p.Packets)
			out.CoreStats[i].Polls = sub(out.CoreStats[i].Polls, p.Polls)
			out.CoreStats[i].Empty = sub(out.CoreStats[i].Empty, p.Empty)
			out.CoreStats[i].Handoffs = sub(out.CoreStats[i].Handoffs, p.Handoffs)
		}
	}

	// Pool counters are process-global monotonic; Shards/Free are gauges.
	out.Pool.Gets = sub(s.Pool.Gets, prev.Pool.Gets)
	out.Pool.Hits = sub(s.Pool.Hits, prev.Pool.Hits)
	out.Pool.Puts = sub(s.Pool.Puts, prev.Pool.Puts)
	out.Pool.DoublePuts = sub(s.Pool.DoublePuts, prev.Pool.DoublePuts)

	// Wire counters are process-global monotonic; Mode is a gauge.
	if s.Wire != nil && prev.Wire != nil {
		w := *s.Wire
		w.RxBatches = sub(s.Wire.RxBatches, prev.Wire.RxBatches)
		w.RxFrames = sub(s.Wire.RxFrames, prev.Wire.RxFrames)
		w.RxTruncated = sub(s.Wire.RxTruncated, prev.Wire.RxTruncated)
		w.TxBatches = sub(s.Wire.TxBatches, prev.Wire.TxBatches)
		w.TxFrames = sub(s.Wire.TxFrames, prev.Wire.TxFrames)
		w.TxSends = sub(s.Wire.TxSends, prev.Wire.TxSends)
		w.RxMalformed = sub(s.Wire.RxMalformed, prev.Wire.RxMalformed)
		w.RxGROBuffers = sub(s.Wire.RxGROBuffers, prev.Wire.RxGROBuffers)
		w.RxGROFrames = sub(s.Wire.RxGROFrames, prev.Wire.RxGROFrames)
		w.RxBundles = sub(s.Wire.RxBundles, prev.Wire.RxBundles)
		w.TxBundles = sub(s.Wire.TxBundles, prev.Wire.TxBundles)
		w.TxBundled = sub(s.Wire.TxBundled, prev.Wire.TxBundled)
		out.Wire = &w
	}

	out.Rings = make([]RingSnapshot, len(s.Rings))
	copy(out.Rings, s.Rings)
	if len(prev.Rings) == len(s.Rings) {
		for i := range out.Rings {
			p := prev.Rings[i]
			if p.Role != out.Rings[i].Role || p.Chain != out.Rings[i].Chain {
				continue
			}
			out.Rings[i].Rejected = sub(out.Rings[i].Rejected, p.Rejected)
		}
	}

	prevEl := make(map[elKey]ElementSnapshot, len(prev.Elements))
	for _, e := range prev.Elements {
		prevEl[e.key()] = e
	}
	out.Elements = make([]ElementSnapshot, len(s.Elements))
	for i, e := range s.Elements {
		counters := make(map[string]uint64, len(e.Counters))
		p, ok := prevEl[e.key()]
		for k, v := range e.Counters {
			if ok {
				v = sub(v, p.Counters[k])
			}
			counters[k] = v
		}
		e.Counters = counters
		out.Elements[i] = e
	}
	out.Imbalance = out.ImbalanceRatio()
	return out
}

// elKey identifies an element across snapshots of one generation.
type elKey struct {
	chain int
	name  string
}

func (e ElementSnapshot) key() elKey { return elKey{e.Chain, e.Name} }

// sub is saturating subtraction: a counter that appears to run backward
// (it cannot within one generation) clamps to 0 instead of wrapping.
func sub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}
