package mesh

import (
	"sync"
	"testing"
	"time"
)

// fastTopology builds an n-member loopback topology with aggressive
// timings so failure detection converges in test time.
func fastTopology(t *testing.T, n int) Topology {
	t.Helper()
	topo, err := GenerateLocal(n)
	if err != nil {
		t.Fatal(err)
	}
	topo.HeartbeatMs = 20
	topo.SuspectAfterMs = 100
	topo.DeadAfterMs = 300
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo
}

// changeLog collects OnChange events for one node, thread-safe.
type changeLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *changeLog) add(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *changeLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

func (l *changeLog) last() (Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) == 0 {
		return Event{}, false
	}
	return l.events[len(l.events)-1], true
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestNodeFailureDetectionAndRejoin runs three real control planes over
// loopback UDP: all converge to alive, one is stopped and the survivors
// declare it dead (firing the re-stripe callback with the right live
// vector), then it comes back under a new incarnation and the survivors
// fire the rejoin re-stripe. Run under -race this doubles as the
// concurrency gate for the tracker/node locking.
func TestNodeFailureDetectionAndRejoin(t *testing.T) {
	topo := fastTopology(t, 3)
	nodes := make([]*Node, 3)
	logs := make([]*changeLog, 3)
	for i := range nodes {
		log := &changeLog{}
		logs[i] = log
		n, err := NewNode(NodeConfig{
			Self:     i,
			Topology: topo,
			OnChange: log.add,
			Logf:     t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		n.Start()
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Stop()
			}
		}
	}()

	// Everyone sees everyone alive, with measured RTTs.
	waitFor(t, 3*time.Second, "full mesh alive", func() bool {
		for _, n := range nodes {
			if n.Tracker().AliveCount() != 3 {
				return false
			}
		}
		return true
	})
	st := nodes[0].Status()
	if st.Alive != 3 || st.Members != 3 {
		t.Fatalf("status: %+v", st)
	}
	waitFor(t, 3*time.Second, "RTT measured", func() bool {
		for _, p := range nodes[0].Status().Peers {
			if p.State == "alive" && p.RTTMicros > 0 {
				return true
			}
		}
		return false
	})

	// Kill node 2's control plane. Survivors must declare it dead and
	// fire OnChange with live = [true, true, false]. The tracker flips
	// state before report() runs OnChange, so wait for the event too.
	seen := []int{logs[0].count(), logs[1].count()}
	nodes[2].Stop()
	nodes[2] = nil
	waitFor(t, 3*time.Second, "death detected", func() bool {
		for i, n := range nodes[:2] {
			if n.Tracker().State(2) != StateDead || logs[i].count() == seen[i] {
				return false
			}
		}
		return true
	})
	for i, log := range logs[:2] {
		ev, ok := log.last()
		if !ok {
			t.Fatalf("node %d: no OnChange event for the death", i)
		}
		if ev.Live[0] != true || ev.Live[1] != true || ev.Live[2] != false {
			t.Fatalf("node %d: live vector %v", i, ev.Live)
		}
	}
	// The suspect state was passed through on the way down.
	if nodes[0].Tracker().AliveCount() != 2 {
		t.Fatalf("alive = %d, want 2", nodes[0].Tracker().AliveCount())
	}

	// Rejoin: a fresh process (new incarnation) binds the same member
	// slot. Survivors flip it back to alive and re-stripe it in.
	reborn, err := NewNode(NodeConfig{Self: 2, Topology: topo, OnChange: logs[2].add})
	if err != nil {
		t.Fatal(err)
	}
	nodes[2] = reborn
	seen = []int{logs[0].count(), logs[1].count()}
	reborn.Start()
	waitFor(t, 3*time.Second, "rejoin detected", func() bool {
		for i, n := range nodes[:2] {
			if n.Tracker().State(2) != StateAlive || logs[i].count() == seen[i] {
				return false
			}
		}
		return true
	})
	for i, log := range logs[:2] {
		ev, ok := log.last()
		if !ok || !ev.Live[2] {
			t.Fatalf("node %d: rejoin event missing or wrong: %+v", i, ev)
		}
		rejoined := false
		for _, tr := range ev.Transitions {
			if tr.Peer == 2 && tr.Rejoined {
				rejoined = true
			}
		}
		if !rejoined {
			t.Fatalf("node %d: rejoin transition not flagged: %+v", i, ev.Transitions)
		}
	}
}

// TestNodeGenerationAdvertised checks that a member's re-stripe
// generation propagates to its peers' membership tables via heartbeats.
func TestNodeGenerationAdvertised(t *testing.T) {
	topo := fastTopology(t, 2)
	a, err := NewNode(NodeConfig{Self: 0, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(NodeConfig{Self: 1, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()
	a.SetGeneration(5)
	a.Start()
	b.Start()
	waitFor(t, 3*time.Second, "generation advertised", func() bool {
		return b.Status().Peers[0].Generation == 5
	})
}

func TestTopologyValidate(t *testing.T) {
	good := Topology{Members: []Member{
		{ID: 0, Data: "127.0.0.1:1", Ctrl: "127.0.0.1:2", Ext: "127.0.0.1:3", API: "127.0.0.1:4"},
		{ID: 1, Data: "127.0.0.1:5", Ctrl: "127.0.0.1:6", Ext: "127.0.0.1:7", API: "127.0.0.1:8"},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Topology{
		{},
		{Members: good.Members[:1]},
		{Members: []Member{good.Members[1], good.Members[0]}},                                                                    // ids out of order
		{Members: []Member{good.Members[0], {ID: 1, Data: "nope", Ctrl: "127.0.0.1:6", Ext: "127.0.0.1:7", API: "127.0.0.1:8"}}}, // bad addr
		{HeartbeatMs: 500, SuspectAfterMs: 100, Members: good.Members},                                                           // inverted timings
	}
	for i, bad := range bads {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad topology %d validated", i)
		}
	}
}
