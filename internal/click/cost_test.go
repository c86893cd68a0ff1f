package click

import (
	"strings"
	"testing"
)

func TestTopologyMapping(t *testing.T) {
	flat := Topology{}
	if !flat.Flat() || flat.SocketOf(7) != 0 || flat.QueueSocketOf(3) != 0 {
		t.Errorf("zero-value topology is not flat: %+v", flat)
	}

	two := Topology{Sockets: 2, CoresPerSocket: 2}
	for core, want := range []int{0, 0, 1, 1} {
		if got := two.SocketOf(core); got != want {
			t.Errorf("SocketOf(%d) = %d, want %d", core, got, want)
		}
	}
	// Cores past the described layout wrap rather than invent sockets.
	if got := two.SocketOf(4); got != 0 {
		t.Errorf("SocketOf(4) = %d, want wrap to 0", got)
	}
	// Default queue affinity follows the core layout; explicit mappings
	// wrap over their entries.
	if got := two.QueueSocketOf(2); got != 1 {
		t.Errorf("default QueueSocketOf(2) = %d, want 1", got)
	}
	two.QueueSocket = []int{1, 0}
	for q, want := range []int{1, 0, 1, 0} {
		if got := two.QueueSocketOf(q); got != want {
			t.Errorf("QueueSocketOf(%d) = %d, want %d", q, got, want)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	bad := []Topology{
		{Sockets: -1},
		{Sockets: 2, CoresPerSocket: -2},
		{Sockets: 2}, // multi-socket needs CoresPerSocket
		{Sockets: 2, CoresPerSocket: 1, QueueSocket: []int{2}},
		{Sockets: 2, CoresPerSocket: 1, QueueSocket: []int{-1}},
		{QueueSocket: []int{1}}, // flat: only socket 0 exists
	}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", topo)
		}
	}
	good := Topology{Sockets: 2, CoresPerSocket: 4, QueueSocket: []int{0, 1}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected %+v: %v", good, err)
	}
}

func TestBusCostModel(t *testing.T) {
	m := NewBusCostModel(Topology{Sockets: 2, CoresPerSocket: 2}, 100)
	if got := m.HandoffCost(0, 1); got != 100 {
		t.Errorf("same-socket handoff = %.0f, want 100", got)
	}
	if got := m.HandoffCost(1, 2); got != 100*DefaultCrossSocketFactor {
		t.Errorf("cross-socket handoff = %.0f, want %.0f", got, 100*DefaultCrossSocketFactor)
	}
	if got := m.InputCost(0, 0); got != 0 {
		t.Errorf("local input cost = %.0f, want 0", got)
	}
	if got := m.InputCost(0, 1); got <= 0 {
		t.Errorf("remote input cost = %.0f, want > 0", got)
	}
	// Defaulted price: the historical 120-cycle constant.
	if d := NewBusCostModel(Topology{}, 0); d.HandoffCost(0, 1) != DefaultHandoffCycles {
		t.Errorf("defaulted handoff = %.0f, want %d", d.HandoffCost(0, 1), DefaultHandoffCycles)
	}

	// Literal construction normalizes the same way NewBusCostModel
	// does: a zero CrossSocketFactor must not make remote crossings
	// free (or remote polling negative).
	lit := &BusCostModel{Topo: Topology{Sockets: 2, CoresPerSocket: 2}, HandoffCycles: 200}
	if got := lit.HandoffCost(1, 2); got != 200*DefaultCrossSocketFactor {
		t.Errorf("literal model cross-socket handoff = %.0f, want %.0f", got, 200*DefaultCrossSocketFactor)
	}
	if got := lit.InputCost(0, 1); got <= 0 {
		t.Errorf("literal model remote input cost = %.0f, want > 0", got)
	}
}

func TestDetectTopologySane(t *testing.T) {
	topo := DetectTopology()
	if err := topo.Validate(); err != nil {
		t.Fatalf("detected topology invalid: %+v: %v", topo, err)
	}
	if topo.Sockets < 1 || topo.CoresPerSocket < 1 {
		t.Fatalf("detected topology degenerate: %+v", topo)
	}
}

// TestAssignerTopology proves the planner's core assignment consults
// the model: parallel chains land on the socket owning their input
// queue, and a pipelined chain stays on one socket until it runs out of
// local cores.
func TestAssignerTopology(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 2, QueueSocket: []int{1, 1, 0, 0}}
	model := NewBusCostModel(topo, 100)

	// Parallel: one core per chain, pinned to the queue's socket.
	asn := newCoreAssigner(4, topo, model)
	want := [][]int{{2}, {3}, {0}, {1}}
	for ch := range want {
		if got := asn.take(ch, 1); got[0] != want[ch][0] {
			t.Errorf("parallel chain %d on core %v, want %v", ch, got, want[ch])
		}
	}

	// Pipelined: the chain's first core is queue-local, successors take
	// the cheapest handoff — staying on the socket until it is full,
	// then crossing once.
	asn = newCoreAssigner(4, topo, model)
	got := asn.take(0, 3)
	if got[0] != 2 || got[1] != 3 || topo.SocketOf(got[2]) != 0 {
		t.Errorf("pipelined chain cores %v: want queue socket 1 first (cores 2,3), then one crossing", got)
	}

	// Flat topology reproduces the historical layout exactly.
	flat := newCoreAssigner(4, Topology{}, NewBusCostModel(Topology{}, 0))
	for ch := 0; ch < 2; ch++ {
		got := flat.take(ch, 2)
		if got[0] != ch*2 || got[1] != ch*2+1 {
			t.Errorf("flat chain %d cores %v, want [%d %d]", ch, got, ch*2, ch*2+1)
		}
	}
}

// TestPlanTopologyDescribe checks the plan surface carries the
// topology: CoreStat.Socket, PlanRing From/To/Cost, and Describe's
// model terms.
func TestPlanTopologyDescribe(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 1}
	plan, err := NewPlan(PlanConfig{
		Kind: Pipelined, Cores: 2, Program: threeStages(), Topo: topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Stats() {
		if s.Socket != topo.SocketOf(s.Core) {
			t.Errorf("core %d reports socket %d, want %d", s.Core, s.Socket, topo.SocketOf(s.Core))
		}
	}
	var sawHandoff bool
	for _, r := range plan.Rings() {
		switch r.Role {
		case "input":
			if r.From != -1 || r.To < 0 {
				t.Errorf("input ring endpoints %d->%d", r.From, r.To)
			}
		case "handoff":
			sawHandoff = true
			if r.From != 0 || r.To != 1 {
				t.Errorf("handoff ring endpoints %d->%d, want 0->1", r.From, r.To)
			}
			// Cores 0 and 1 sit on different sockets here, so the default
			// model must charge the cross-socket premium.
			if r.Cost != DefaultHandoffCycles*DefaultCrossSocketFactor {
				t.Errorf("cross-socket handoff priced %.0f, want %.0f",
					r.Cost, float64(DefaultHandoffCycles)*DefaultCrossSocketFactor)
			}
		}
	}
	if !sawHandoff {
		t.Fatal("no handoff ring in a 2-core pipelined plan")
	}
	desc := plan.Describe()
	for _, wantSub := range []string{"socket 1", "cross-socket", "cost model: bus model"} {
		if !strings.Contains(desc, wantSub) {
			t.Errorf("Describe missing %q:\n%s", wantSub, desc)
		}
	}
	if plan.Topology().Sockets != 2 || plan.Cost() == nil {
		t.Errorf("plan does not carry its topology/model: %+v", plan.Topology())
	}
}
