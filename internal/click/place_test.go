package click

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"routebricks/internal/pkt"
)

// tagElem appends its id to every packet's NextHop-trail by bumping a
// per-packet hop count, so tests can prove each packet traversed every
// stage exactly once.
type tagElem struct {
	Base
	hops atomic.Uint64
}

func (e *tagElem) InPorts() int  { return 1 }
func (e *tagElem) OutPorts() int { return 1 }

func (e *tagElem) Push(ctx *Context, _ int, p *pkt.Packet) {
	p.NextHop++
	e.hops.Add(1)
	e.Out(ctx, 0, p)
}

func (e *tagElem) PushBatch(ctx *Context, _ int, b *pkt.Batch) {
	n := 0
	for _, p := range b.Packets() {
		if p != nil {
			p.NextHop++
			n++
		}
	}
	e.hops.Add(uint64(n))
	e.OutBatch(ctx, 0, b)
}

// collectSink records the SeqNo of every packet it consumes. Safe for
// concurrent pushes from multiple chains because each chain gets its own
// instance.
type collectSink struct {
	seqs []uint64
}

func (s *collectSink) InPorts() int  { return 1 }
func (s *collectSink) OutPorts() int { return 0 }

func (s *collectSink) Push(_ *Context, _ int, p *pkt.Packet) {
	s.seqs = append(s.seqs, p.SeqNo)
}

// threeStages builds a 3-stage tagging pipeline a → b → c: a trunk of
// three fresh tagElems per chain, every boundary cuttable.
func threeStages() *Program {
	return NewProgram(func(int) (*Router, error) {
		r := NewRouter()
		for _, name := range []string{"a", "b", "c"} {
			r.MustAdd(name, &tagElem{})
		}
		r.MustConnect("a", 0, "b", 0)
		r.MustConnect("b", 0, "c", 0)
		return r, nil
	})
}

// drivePlan feeds the given packets round-robin across the plan's
// chains and steps every core until the plan drains, all on the calling
// goroutine — the deterministic execution mode.
func drivePlan(t *testing.T, p *Plan, packets []*pkt.Packet) {
	t.Helper()
	ctx := &Context{}
	fed := 0
	for fed < len(packets) {
		for c := 0; c < p.Chains() && fed < len(packets); c++ {
			if p.Input(c).Push(packets[fed]) {
				fed++
			}
		}
		for core := 0; core < p.Cores(); core++ {
			p.RunStep(core, ctx)
		}
	}
	// Drain: keep stepping until every ring is empty and two full sweeps
	// move nothing (pipelined plans need multiple sweeps per packet).
	for quiet := 0; quiet < 2; {
		moved := 0
		for core := 0; core < p.Cores(); core++ {
			moved += p.RunStep(core, ctx)
		}
		if moved == 0 && p.Queued() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
}

// TestPlanDeterminism is the zero-loss equivalence check: a Parallel
// and a Pipelined plan over the same stages must forward the identical
// packet set with no loss, every packet touched by every stage exactly
// once.
func TestPlanDeterminism(t *testing.T) {
	const n = 1000
	for _, kind := range []PlanKind{Parallel, Pipelined} {
		for _, cores := range []int{1, 2, 4} {
			sinks := make(map[int]*collectSink)
			plan, err := NewPlan(PlanConfig{
				Kind:    kind,
				Cores:   cores,
				Program: threeStages(),
				KP:      8,
				Sink: func(chain int) Element {
					s := &collectSink{}
					sinks[chain] = s
					return s
				},
			})
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, cores, err)
			}
			packets := make([]*pkt.Packet, n)
			for i := range packets {
				packets[i] = &pkt.Packet{SeqNo: uint64(i)}
			}
			drivePlan(t, plan, packets)

			if plan.Drops() != 0 {
				t.Errorf("%s/%d: %d ring drops, want 0", kind, cores, plan.Drops())
			}
			seen := make(map[uint64]int)
			for _, s := range sinks {
				for _, seq := range s.seqs {
					seen[seq]++
				}
			}
			if len(seen) != n {
				t.Fatalf("%s/%d: sinks saw %d distinct packets, want %d", kind, cores, len(seen), n)
			}
			for seq, count := range seen {
				if count != 1 {
					t.Fatalf("%s/%d: packet %d delivered %d times", kind, cores, seq, count)
				}
			}
			for _, p := range packets {
				if p.NextHop != 3 {
					t.Fatalf("%s/%d: packet %d crossed %d stages, want 3", kind, cores, p.SeqNo, p.NextHop)
				}
			}
			// Reset the trail for the next configuration.
			for _, p := range packets {
				p.NextHop = 0
			}
		}
	}
}

// TestPlanShapes checks the placement geometry: chains, handoff rings,
// and core-to-stage assignment for both kinds.
func TestPlanShapes(t *testing.T) {
	cases := []struct {
		kind              PlanKind
		cores             int
		wantChains        int
		wantHandoffsTotal int
	}{
		{Parallel, 1, 1, 0},
		{Parallel, 4, 4, 0},
		{Pipelined, 1, 1, 0}, // all 3 stages on the one core
		{Pipelined, 2, 1, 1}, // stages split 2+1, one handoff
		{Pipelined, 3, 1, 2}, // one stage per core, two handoffs
		{Pipelined, 4, 1, 2}, // extra core idle
		{Pipelined, 6, 2, 4}, // two replicated 3-core chains
	}
	for _, tc := range cases {
		plan, err := NewPlan(PlanConfig{Kind: tc.kind, Cores: tc.cores, Program: threeStages()})
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.kind, tc.cores, err)
		}
		if plan.Chains() != tc.wantChains {
			t.Errorf("%s/%d: chains = %d, want %d", tc.kind, tc.cores, plan.Chains(), tc.wantChains)
		}
		if len(plan.handoffs) != tc.wantHandoffsTotal {
			t.Errorf("%s/%d: handoffs = %d, want %d",
				tc.kind, tc.cores, len(plan.handoffs), tc.wantHandoffsTotal)
		}
		if len(plan.inputs) != tc.wantChains {
			t.Errorf("%s/%d: inputs = %d, want %d", tc.kind, tc.cores, len(plan.inputs), tc.wantChains)
		}
	}
}

// TestPlanCoreLayout pins which schedule core runs what: parallel
// chain c on core c, and pipelined chain ch on the G consecutive cores
// [ch·G, (ch+1)·G), its handoff rings joining neighbours.
func TestPlanCoreLayout(t *testing.T) {
	twoStages := NewProgram(func(int) (*Router, error) {
		r := NewRouter()
		r.MustAdd("a", &tagElem{})
		r.MustAdd("b", &tagElem{})
		r.MustConnect("a", 0, "b", 0)
		return r, nil
	})
	cases := []struct {
		kind      PlanKind
		wantChain []int // chain served by cores 0..3
		wantRings string
	}{
		{Parallel, []int{0, 1, 2, 3}, "input 0: -1->0, input 1: -1->1, input 2: -1->2, input 3: -1->3"},
		{Pipelined, []int{0, 0, 1, 1}, "input 0: -1->0, input 1: -1->2, handoff 0: 0->1, handoff 1: 2->3"},
	}
	for _, tc := range cases {
		plan, err := NewPlan(PlanConfig{Kind: tc.kind, Cores: 4, Program: twoStages})
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		stats := plan.Stats()
		if len(stats) != len(tc.wantChain) {
			t.Fatalf("%s: %d core stats, want %d", tc.kind, len(stats), len(tc.wantChain))
		}
		for core, s := range stats {
			if s.Core != core || s.Chain != tc.wantChain[core] {
				t.Errorf("%s: stat %d is core %d chain %d, want core %d chain %d",
					tc.kind, core, s.Core, s.Chain, core, tc.wantChain[core])
			}
		}
		var rings []string
		for _, r := range plan.Rings() {
			rings = append(rings, fmt.Sprintf("%s %d: %d->%d", r.Role, r.Chain, r.From, r.To))
		}
		if got := strings.Join(rings, ", "); got != tc.wantRings {
			t.Errorf("%s: rings %s, want %s", tc.kind, got, tc.wantRings)
		}
	}
}

// TestPlanRunnerLive runs a parallel and a pipelined plan on real
// goroutines and checks complete, loss-free delivery. Run with -race:
// this is the configuration where a ring or counter race would surface.
func TestPlanRunnerLive(t *testing.T) {
	const n = 5000
	for _, kind := range []PlanKind{Parallel, Pipelined} {
		var delivered atomic.Uint64
		plan, err := NewPlan(PlanConfig{
			Kind:    kind,
			Cores:   2,
			Program: threeStages(),
			KP:      16,
			Sink: func(int) Element {
				return countSink{&delivered}
			},
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := plan.Start(); err != nil {
			t.Fatalf("%s: start: %v", kind, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		fed := 0
		for fed < n {
			c := fed % plan.Chains()
			if plan.Input(c).Push(&pkt.Packet{SeqNo: uint64(fed)}) {
				fed++
			} else {
				runtime.Gosched()
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: feed stalled at %d/%d", kind, fed, n)
			}
		}
		for delivered.Load() < n {
			runtime.Gosched()
			if time.Now().After(deadline) {
				t.Fatalf("%s: delivered %d/%d before deadline", kind, delivered.Load(), n)
			}
		}
		plan.Stop()
		if plan.Drops() != 0 {
			t.Errorf("%s: %d drops, want 0", kind, plan.Drops())
		}
		if delivered.Load() != n {
			t.Errorf("%s: delivered %d, want %d", kind, delivered.Load(), n)
		}
	}
}

// countSink counts deliveries into a shared atomic — the concurrent
// analog of collectSink.
type countSink struct{ n *atomic.Uint64 }

func (s countSink) InPorts() int                          { return 1 }
func (s countSink) OutPorts() int                         { return 0 }
func (s countSink) Push(_ *Context, _ int, _ *pkt.Packet) { s.n.Add(1) }

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(PlanConfig{Kind: Parallel, Cores: 0, Program: threeStages()}); err == nil {
		t.Error("0 cores accepted")
	}
	if _, err := NewPlan(PlanConfig{Kind: Parallel, Cores: 1}); err == nil {
		t.Error("nil Program accepted")
	}
	if _, err := NewPlan(PlanConfig{Kind: Parallel, Cores: 1, Program: &Program{}}); err == nil {
		t.Error("nil Build accepted")
	}
	if _, err := NewPlan(PlanConfig{Kind: PlanKind(9), Cores: 1, Program: threeStages()}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// flowElem is a tagElem that keeps per-flow state.
type flowElem struct{ tagElem }

func (*flowElem) StateClass() StateClass { return PerFlow }

// TestAutoPerFlow covers Auto's per-flow branch, which routebricks.Load
// never reaches because it always steers by flow: a PerFlow element
// without FlowSteered pins the graph to one pipelined chain, and with
// it the graph runs Parallel.
func TestAutoPerFlow(t *testing.T) {
	prog := NewProgram(func(int) (*Router, error) {
		r := NewRouter()
		r.MustAdd("f", &flowElem{})
		r.MustAdd("t", &tagElem{})
		r.MustConnect("f", 0, "t", 0)
		return r, nil
	})
	cases := []struct {
		steered bool
		kind    PlanKind
		chains  int
		decided string
	}{
		{false, Pipelined, 1, "per-flow elements [f] without flow steering"},
		{true, Parallel, 4, "no element pins state"},
	}
	for _, tc := range cases {
		p, err := NewPlan(PlanConfig{Kind: Auto, Cores: 4, Program: prog, FlowSteered: tc.steered})
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind() != tc.kind || p.Chains() != tc.chains || !strings.Contains(p.Decision(), tc.decided) {
			t.Errorf("FlowSteered %v: %s with %d chains, decision %q; want %s with %d, %q",
				tc.steered, p.Kind(), p.Chains(), p.Decision(), tc.kind, tc.chains, tc.decided)
		}
	}
	if _, err := NewPlan(PlanConfig{Kind: Parallel, Cores: 4, Program: prog}); err == nil {
		t.Error("explicit parallel cloned per-flow state without flow steering")
	}
}
