package cluster

import (
	"testing"

	"routebricks/internal/sim"
	"routebricks/internal/trafficgen"
)

// Failing an intermediate node must not stop traffic between the other
// nodes: the balancers route around it.
func TestFailureRoutesAround(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 21
	// A tight fit capacity forces the single-pair load off the direct
	// path and across the intermediates, so the failed node is actually
	// carrying traffic (with the default 10G fit, the direct path absorbs
	// everything and the failure would be invisible).
	cfg.FitCapBps = 3e9
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 → node 3 only, overloading the direct quota so intermediates
	// (1 and 2) are exercised; node 1 dies mid-run.
	w := Workload{
		OfferedBpsPerNode: 8e9,
		Sizes:             trafficgen.AbileneMix(),
		InputNodes:        []int{0},
		OutputNodes:       []int{3},
		Duration:          20 * sim.Millisecond,
		Seed:              21,
	}
	w.Apply(c)
	c.FailNode(5*sim.Millisecond, 1)
	c.Run(w.Duration + sim.Millisecond)
	c.Drain(30 * sim.Millisecond)

	injected, delivered, rxd, txd, ttl := c.Totals()
	lost := c.FailureDrops()
	t.Logf("injected %d, delivered %d, failure drops %d", injected, delivered, lost)
	if lost == 0 {
		t.Fatal("no packets were in flight through the failed node — failure not exercised")
	}
	// Everything not lost to the failure (or stuck in the dead node's
	// rings) must still be delivered.
	stuck := uint64(c.nodes[1].queued())
	accounted := delivered + rxd + txd + ttl + lost + stuck + uint64(c.flying)
	if accounted != injected {
		t.Fatalf("conservation: injected=%d accounted=%d (delivered=%d lost=%d stuck=%d)",
			injected, accounted, delivered, lost, stuck)
	}
	// The surviving paths must carry the bulk of the traffic: less than
	// a few percent dies in the failure window.
	if float64(lost+stuck)/float64(injected) > 0.05 {
		t.Fatalf("lost %d + stuck %d of %d — balancers did not route around the failure",
			lost, stuck, injected)
	}
	if delivered < injected*9/10 {
		t.Fatalf("delivered only %d of %d after failure", delivered, injected)
	}
}

// After the failed node recovers, it resumes forwarding: a second wave
// of traffic through it is delivered.
func TestFailureRecovery(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 22
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.FailNode(0, 1)
	c.RecoverNode(2*sim.Millisecond, 1)
	w := Workload{
		OfferedBpsPerNode: 1e9,
		Sizes:             trafficgen.Fixed(300),
		InputNodes:        []int{1},
		OutputNodes:       []int{2},
		Duration:          5 * sim.Millisecond,
		Seed:              22,
	}
	// Shift the workload start past the recovery by injecting it on a
	// cluster whose node was already recovered at t=2ms: packets before
	// 2 ms are failure-dropped, later ones delivered.
	w.Apply(c)
	c.Run(w.Duration + sim.Millisecond)
	c.Drain(30 * sim.Millisecond)
	injected, delivered, _, _, _ := c.Totals()
	t.Logf("injected %d, delivered %d, failure drops %d", injected, delivered, c.FailureDrops())
	if delivered == 0 {
		t.Fatal("recovered node delivered nothing")
	}
	if delivered+c.FailureDrops() < injected {
		t.Fatalf("delivered %d + failureDrops %d < injected %d",
			delivered, c.FailureDrops(), injected)
	}
	// Most of the run happens after recovery: the majority is delivered.
	if delivered < injected/2 {
		t.Fatalf("delivered %d of %d after recovery", delivered, injected)
	}
}

// VLB fairness (§3.1 guarantee 2): three inputs overloading one output
// port each get a comparable share of the output capacity.
func TestFairnessUnderOutputOverload(t *testing.T) {
	cfg := RB4Config()
	cfg.Seed = 23
	cfg.QueueSize = 128
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{
		OfferedBpsPerNode: 6e9, // 3 × 6G into a 10G output port
		Sizes:             trafficgen.Fixed(1500),
		InputNodes:        []int{0, 1, 2},
		OutputNodes:       []int{3},
		Duration:          15 * sim.Millisecond,
		Seed:              23,
	}
	w.Apply(c)
	c.Run(w.Duration + sim.Millisecond)
	c.Drain(30 * sim.Millisecond)

	shares := c.DeliveredByInput[:3]
	total := shares[0] + shares[1] + shares[2]
	if total == 0 {
		t.Fatal("nothing delivered")
	}
	for in, got := range shares {
		f := float64(got) / float64(total)
		if f < 0.25 || f > 0.42 {
			t.Errorf("input %d received share %.3f of the contended output, want ≈1/3 (%v)",
				in, f, shares)
		}
	}
}

// The measured loss-free rate of RB4 at 64 B must land near the analytic
// 3 Gbps/node (§6.2's 12 Gbps total).
func TestMeasuredLossFreeRateMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("rate search in -short mode")
	}
	cfg := RB4Config()
	cfg.Seed = 24
	probes, bps, err := MeasuredLossFreeRate(cfg, trafficgen.Fixed(64),
		1.5e9, 4.5e9, 0.001, 4*sim.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		t.Log(p)
	}
	// The DES lands below the analytic 12 Gbps for a structural reason
	// the back-of-envelope ignores: with one core per queue, the busiest
	// core carries an egress shard (R/(N−1)/split of minimal forwarding)
	// on top of its 1/cores ingress share — 527 cycles·R vs the perfectly
	// balanced 478 — plus queue buildup right at the loss-free knee. The
	// paper's own measurement fell below its expected band too (12 vs
	// 12.7–19.4). Accept [8.5, 13].
	total := 4 * bps / 1e9
	if total < 8.5 || total > 13 {
		t.Fatalf("measured RB4 rate = %.1f Gbps, want within [8.5,13] (analytic 12, §6.2)", total)
	}
}

func TestMeasuredRateValidation(t *testing.T) {
	cfg := RB4Config()
	if _, _, err := MeasuredLossFreeRate(cfg, trafficgen.Fixed(64), 0, 1, 0.1, sim.Millisecond, 1); err == nil {
		t.Error("bad range accepted")
	}
}
