package routebricks

import (
	"strings"
	"testing"
)

// rewardModel is a physically implausible cost model that asserts ring
// crossings are beneficial. It exists to prove the placement decision
// follows whatever the model says — the flat 120-cycle constant is
// gone — by constructing the one situation where a handoff-heavy plan
// must win.
type rewardModel struct{}

func (rewardModel) HandoffCost(from, to int) float64  { return -1000 }
func (rewardModel) InputCost(core, qsock int) float64 { return 0 }
func (rewardModel) Describe() string                  { return "test model: handoffs win" }

// TestTopologyPlacement is the topology acceptance contract: under a
// 2-socket Topology every parallel chain's cores stay on the socket
// that owns its input ring, a pipelined candidate's cross-socket
// handoff is charged the model's premium (so Auto avoids it), and a
// cross-socket handoff is chosen only when the cost model says it
// wins.
func TestTopologyPlacement(t *testing.T) {
	table := equivTable(t)
	prebound := func(chain int) map[string]Element {
		return newEquivTerminals().prebound(table)
	}

	// Parallel chains pin to their input ring's socket: queues 0,1 are
	// owned by socket 1 and queues 2,3 by socket 0, so the planner must
	// place chains 0,1 on cores 2,3 and chains 2,3 on cores 0,1.
	topo := Topology{Sockets: 2, CoresPerSocket: 2, QueueSocket: []int{1, 1, 0, 0}}
	pipe, err := Load(branchyConfig, Options{
		Cores:         4,
		Placement:     Parallel,
		Topology:      &topo,
		HandoffCycles: 100,
		Prebound:      prebound,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range pipe.Snapshot().CoreStats {
		want := topo.QueueSocketOf(cs.Chain)
		if cs.Socket != want {
			t.Errorf("chain %d placed on core %d (socket %d), want its queue's socket %d",
				cs.Chain, cs.Core, cs.Socket, want)
		}
		if topo.SocketOf(cs.Core) != cs.Socket {
			t.Errorf("core %d reports socket %d, topology says %d", cs.Core, cs.Socket, topo.SocketOf(cs.Core))
		}
	}
	if desc := pipe.Describe(); !strings.Contains(desc, "(socket 1)") {
		t.Errorf("Describe does not show sockets:\n%s", desc)
	}

	// The cross-socket premium is real: the same program calibrated at
	// 2 cores splits the pipelined candidate across sockets, which must
	// record cross-socket crossings and score strictly worse than the
	// same candidate on a flat topology. Auto still picks parallel.
	prebound2, sinkFn := autoPrebound(t)
	load := func(topo *Topology) *Pipeline {
		p, err := Load(placementConfig, Options{
			Cores:         2,
			Placement:     Auto,
			Topology:      topo,
			HandoffCycles: 100,
			Prebound:      prebound2,
			Sink:          sinkFn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	flat := load(&Topology{})
	split := load(&Topology{Sockets: 2, CoresPerSocket: 1})
	if flat.Placement() != Parallel || split.Placement() != Parallel {
		t.Fatalf("Auto picked %s (flat) / %s (split), want parallel for both",
			flat.Placement(), split.Placement())
	}
	flatPip, splitPip := flat.Calibration()[1], split.Calibration()[1]
	if flatPip.CrossSocketPackets != 0 {
		t.Errorf("flat pipelined candidate crossed %d sockets", flatPip.CrossSocketPackets)
	}
	if splitPip.CrossSocketPackets == 0 {
		t.Error("2-socket pipelined candidate recorded no cross-socket crossings")
	}
	if splitPip.Score <= flatPip.Score {
		t.Errorf("cross-socket pipelined score %.0f not above same-socket %.0f — the premium was not charged",
			splitPip.Score, flatPip.Score)
	}
	// The handoff ring's endpoints and price surface in the snapshot.
	var sawPriced bool
	for _, r := range split.Snapshot().Rings {
		if r.Role == "input" && r.FromCore != -1 {
			t.Errorf("input ring claims producer core %d", r.FromCore)
		}
	}
	pipe2, err := Load(placementConfig, Options{
		Cores: 2, Placement: Pipelined,
		Topology: &Topology{Sockets: 2, CoresPerSocket: 1}, HandoffCycles: 100,
		Prebound: prebound2, Sink: sinkFn,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range pipe2.Snapshot().Rings {
		if r.Role == "handoff" {
			sawPriced = true
			if r.Cost != 100*3 { // cross-socket: HandoffCycles × default factor
				t.Errorf("cross-socket handoff priced %.0f, want 300", r.Cost)
			}
		}
	}
	if !sawPriced {
		t.Fatal("no handoff ring in the 2-core pipelined snapshot")
	}

	// A cross-socket handoff is chosen only when the model says it
	// wins: substitute a model that rewards crossings and the same
	// calibration must flip to pipelined.
	rewarded, err := Load(placementConfig, Options{
		Cores:     2,
		Placement: Auto,
		Topology:  &Topology{Sockets: 2, CoresPerSocket: 1},
		CostModel: rewardModel{},
		Prebound:  prebound2,
		Sink:      sinkFn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rewarded.Placement() != Pipelined {
		t.Fatalf("model that rewards handoffs still produced %s — the decision is not model-driven",
			rewarded.Placement())
	}
	if d := rewarded.Snapshot().Decision; !strings.Contains(d, "test model: handoffs win") {
		t.Errorf("decision does not record the substituted model: %q", d)
	}
}
