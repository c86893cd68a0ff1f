package click

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"routebricks/internal/pkt"
)

// stealSink consumes packets and counts them — the terminal stage for
// steal tests, safe for concurrent pushes.
type stealSink struct {
	n atomic.Uint64
}

func (s *stealSink) InPorts() int  { return 1 }
func (s *stealSink) OutPorts() int { return 0 }

func (s *stealSink) Push(_ *Context, _ int, p *pkt.Packet) { s.n.Add(1) }

func (s *stealSink) PushBatch(_ *Context, _ int, b *pkt.Batch) {
	s.n.Add(uint64(b.Compact()))
	b.Reset()
}

// stealPackets builds n minimal tagged packets.
func stealPackets(n int) []*pkt.Packet {
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	out := make([]*pkt.Packet, n)
	for i := range out {
		p := pkt.New(64, src, dst, uint16(i), 80)
		p.SeqNo = uint64(i)
		out[i] = p
	}
	return out
}

// sinkPlan builds a parallel plan whose single stage is a counting
// sink, one per chain, and returns the plan plus the per-chain sinks.
func sinkPlan(t *testing.T, cores int, steal bool, stealMin int) (*Plan, []*stealSink) {
	t.Helper()
	var sinks []*stealSink
	plan, err := NewPlan(PlanConfig{
		Kind:  Parallel,
		Cores: cores,
		Program: NewProgram(func(int) (*Router, error) {
			s := &stealSink{}
			sinks = append(sinks, s)
			r := NewRouter()
			return r, r.Add("sink", s)
		}),
		KP:       32,
		Steal:    steal,
		StealMin: stealMin,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan, sinks
}

// TestStealRunStep is the deterministic steal check: a 2-core parallel
// plan with stealing enabled, every packet fed to chain 0's input ring,
// and only core 1 stepped. Core 1's own ring is empty, so the packets
// it delivers can only have been stolen from chain 0 — and the steal
// counters must say so.
func TestStealRunStep(t *testing.T) {
	plan, sinks := sinkPlan(t, 2, true, 1)
	for _, p := range stealPackets(64) {
		if !plan.Input(0).Push(p) {
			t.Fatal("input ring 0 rejected a packet")
		}
	}
	ctx := &Context{}
	moved := 0
	for i := 0; i < 16 && moved < 64; i++ {
		moved += plan.RunStep(1, ctx)
	}
	if moved != 64 {
		t.Fatalf("core 1 moved %d packets, want all 64 via stealing", moved)
	}
	if got := sinks[1].n.Load(); got != 64 {
		t.Errorf("chain 1's sink saw %d packets, want 64 (stolen work runs on the stealer's graph)", got)
	}
	if got := sinks[0].n.Load(); got != 0 {
		t.Errorf("chain 0's sink saw %d packets, want 0 (its core never ran)", got)
	}
	stats := plan.Stats()
	if got := stats[1].Steals(); got != 64 {
		t.Errorf("core 1 Steals() = %d, want 64", got)
	}
	if got := stats[0].Stolen(); got != 64 {
		t.Errorf("core 0 Stolen() = %d, want 64", got)
	}
	if got := stats[0].Steals(); got != 0 {
		t.Errorf("core 0 Steals() = %d, want 0", got)
	}
}

// TestStealThreshold: a backlog below StealMin must not be stolen —
// under the threshold the imbalance is noise, and stealing it would
// churn flow affinity for nothing.
func TestStealThreshold(t *testing.T) {
	plan, sinks := sinkPlan(t, 2, true, 16)
	for _, p := range stealPackets(8) { // 8 < StealMin 16
		if !plan.Input(0).Push(p) {
			t.Fatal("input ring 0 rejected a packet")
		}
	}
	ctx := &Context{}
	for i := 0; i < 8; i++ {
		if n := plan.RunStep(1, ctx); n != 0 {
			t.Fatalf("core 1 moved %d packets below the steal threshold", n)
		}
	}
	if got := plan.Stats()[1].Steals(); got != 0 {
		t.Errorf("core 1 Steals() = %d, want 0 below threshold", got)
	}
	// Chain 0's own core still drains its backlog normally.
	for i := 0; i < 8 && sinks[0].n.Load() < 8; i++ {
		plan.RunStep(0, ctx)
	}
	if got := sinks[0].n.Load(); got != 8 {
		t.Errorf("chain 0 delivered %d, want 8", got)
	}
}

// TestStealDisabled: with Steal off (the default), an idle core must
// never touch a sibling's ring no matter how deep the backlog.
func TestStealDisabled(t *testing.T) {
	plan, sinks := sinkPlan(t, 2, false, 0)
	for _, p := range stealPackets(64) {
		if !plan.Input(0).Push(p) {
			t.Fatal("input ring 0 rejected a packet")
		}
	}
	ctx := &Context{}
	for i := 0; i < 8; i++ {
		if n := plan.RunStep(1, ctx); n != 0 {
			t.Fatalf("core 1 moved %d packets with stealing disabled", n)
		}
	}
	if got := sinks[1].n.Load(); got != 0 {
		t.Errorf("chain 1's sink saw %d packets with stealing disabled", got)
	}
}

// TestStealLiveConservation is the -race gate for the steal protocol on
// real goroutines: a skewed feed (everything into chain 0) across a
// 4-core parallel plan with stealing on must deliver every packet
// exactly once — the sinks' total equals the fed count with no drops,
// no matter how the cores interleave their locked pops.
func TestStealLiveConservation(t *testing.T) {
	const n = 16384
	plan, sinks := sinkPlan(t, 4, true, 1)
	if err := plan.Start(); err != nil {
		t.Fatal(err)
	}
	defer plan.Stop()

	total := func() uint64 {
		var s uint64
		for _, sk := range sinks {
			s += sk.n.Load()
		}
		return s
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, p := range stealPackets(n) {
		for !plan.Input(0).Push(p) {
			runtime.Gosched()
			if time.Now().After(deadline) {
				t.Fatal("feed stalled")
			}
		}
	}
	for total() < n {
		runtime.Gosched()
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d before deadline", total(), n)
		}
	}
	if got := total(); got != n {
		t.Errorf("delivered %d packets, want exactly %d", got, n)
	}
	if drops := plan.Drops(); drops != 0 {
		t.Errorf("%d drops in a loss-free run", drops)
	}
	var steals, stolen uint64
	for _, cs := range plan.Stats() {
		steals += cs.Steals()
		stolen += cs.Stolen()
	}
	if steals != stolen {
		t.Errorf("steals (%d) != stolen (%d): a stolen packet must be credited on both sides", steals, stolen)
	}
}

// TestChooseBoundsWeighted checks the cycle-balancing DP: cuts move
// toward equalizing summed weight, not segment count, while respecting
// forbidden boundaries; uniform weights reduce to the unweighted split.
func TestChooseBoundsWeighted(t *testing.T) {
	cases := []struct {
		n, g  int
		noCut []bool
		w     []float64
		want  []int
	}{
		// Uniform weights: same even split chooseBounds picks.
		{4, 2, []bool{false, false, false}, []float64{1, 1, 1, 1}, []int{0, 2, 4}},
		// One heavy head segment: it gets a group of its own.
		{4, 2, []bool{false, false, false}, []float64{10, 1, 1, 1}, []int{0, 1, 4}},
		// Heavy tail: everything before it groups together.
		{4, 2, []bool{false, false, false}, []float64{1, 1, 1, 10}, []int{0, 3, 4}},
		// The balanced cut (after seg 0) is forbidden: take the legal one.
		{4, 2, []bool{true, false, false}, []float64{10, 1, 1, 1}, []int{0, 2, 4}},
		// Three groups around a heavy middle.
		{5, 3, []bool{false, false, false, false}, []float64{1, 1, 8, 1, 1}, []int{0, 2, 3, 5}},
	}
	for _, tc := range cases {
		got := chooseBoundsWeighted(tc.n, tc.g, tc.noCut, tc.w)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("chooseBoundsWeighted(%d,%d,%v,%v) = %v, want %v", tc.n, tc.g, tc.noCut, tc.w, got, tc.want)
			continue
		}
		for i := 1; i < len(got)-1; i++ {
			if got[i] <= got[i-1] || tc.noCut[got[i]-1] {
				t.Errorf("chooseBoundsWeighted(%d,%d,%v,%v) = %v: illegal boundary %d", tc.n, tc.g, tc.noCut, tc.w, got, got[i])
			}
		}
	}
}
