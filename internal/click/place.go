package click

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"routebricks/internal/exec"
	"routebricks/internal/pkt"
)

// This file is the placement planner: it takes a Program — a whole
// element graph with a per-chain instantiation protocol (program.go) —
// plus a core count and materializes the paper's two §4.2 core
// allocations as runnable plans.
//
//   - Parallel ("one core per queue, one core per packet"): every core
//     gets its own clone of the full graph and its own input ring; a
//     packet is touched by exactly one core from poll to transmit.
//     Chain c runs on schedule core c.
//   - Pipelined: the graph's trunk is cut into G stages, each on its own
//     schedule core, consecutive stages connected by exec.Ring SPSC
//     handoff rings; chain ch runs on cores [ch·G, (ch+1)·G). Side
//     branches stay on the core of the trunk element feeding them.
//     Every stage boundary is a cross-core cache-line handoff — the
//     cost the paper measured to conclude that parallel wins.
//
// Schedule cores are goroutines, not pinned OS threads, so the layout
// names which goroutine runs what, not where the OS places it.
//
// A plan can be driven three ways: Start/Stop spins up the hardened
// Runner (one goroutine per core, real parallelism); RunStep executes
// one core's quantum synchronously — the hook the cluster simulator and
// deterministic tests use to run the same plan types on virtual cores;
// and RunBatch runs a caller's batch through a chain's first stage on
// the caller's goroutine — the run-to-completion entry for callers that
// own a receive queue.

// PlanKind selects the §4.2 core allocation.
type PlanKind int

const (
	// Parallel clones the full pipeline onto every core.
	Parallel PlanKind = iota
	// Pipelined cuts the pipeline into per-core stages joined by SPSC
	// handoff rings.
	Pipelined
	// Auto asks NewPlan to pick by rule from the graph's state classes:
	// Parallel, unless an element holds state that cloning would split,
	// in which case Pipelined with one chain (see resolveAuto).
	Auto PlanKind = -1
)

// String names the allocation as the paper does.
func (k PlanKind) String() string {
	switch k {
	case Parallel:
		return "parallel"
	case Pipelined:
		return "pipelined"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("PlanKind(%d)", int(k))
}

// PlanConfig parameterizes a placement plan.
type PlanConfig struct {
	Kind  PlanKind
	Cores int

	// Program is the graph-first pipeline description: the planner
	// instantiates one independent copy of the whole graph per chain and
	// derives stage boundaries from the graph's trunk.
	Program *Program

	// KP is the poll batch size (default 32, the paper's tuned kp).
	KP int
	// InputCap sizes each chain's input ring (default 4096).
	InputCap int
	// HandoffCap sizes each inter-stage handoff ring (default 1024).
	HandoffCap int
	// Sink, when non-nil, builds a terminal element per chain and wires
	// it after the trunk's last element — which must leave output 0
	// dangling for it. When nil the graph must terminate itself
	// (ToDevice, Discard, prebound sinks) or its trunk output is dropped
	// silently.
	Sink func(chain int) Element

	// FlowSteered declares that whatever feeds the plan's input rings
	// steers packets flow-consistently — every packet of a flow lands on
	// the same chain, e.g. through rss.Chain keyed on the symmetric
	// flow hash. That guarantee is what makes cloning PerFlow elements
	// across chains safe (each clone then owns a disjoint flow set), so
	// NewPlan rejects a multi-chain plan containing PerFlow elements
	// without it.
	FlowSteered bool
}

// CoreStat is the per-core counter block of a running plan. The fields
// are atomics because the Runner's goroutines write them while
// observers read.
type CoreStat struct {
	Core   int    // schedule core index
	Chain  int    // which pipeline replica this core serves
	Stages string // trunk segment names executing on this core, "+"-joined

	packets  atomic.Uint64 // packets pulled into this core
	polls    atomic.Uint64 // poll attempts
	empty    atomic.Uint64 // polls that moved nothing
	handoffs atomic.Uint64 // batches pushed onward to another core
}

// Packets reports packets this core pulled from its upstream ring.
func (s *CoreStat) Packets() uint64 { return s.packets.Load() }

// Polls reports poll attempts; Empty the ones that moved nothing.
func (s *CoreStat) Polls() uint64 { return s.polls.Load() }

// Empty reports empty polls.
func (s *CoreStat) Empty() uint64 { return s.empty.Load() }

// Handoffs reports batches this core pushed into a downstream handoff
// ring (always 0 for parallel plans and final stages).
func (s *CoreStat) Handoffs() uint64 { return s.handoffs.Load() }

// Plan is a materialized core allocation: graphs instantiated per
// chain, rings allocated, tasks bound to schedule cores.
type Plan struct {
	kind     PlanKind
	cores    int
	chains   int
	decision string // how Auto resolved; empty for an explicit kind
	sched    *Schedule
	runner   *Runner

	inputs       []*exec.Ring  // one per chain; callers feed these
	inputCore    []int         // first core of each chain (polls the input ring)
	inputStat    []*CoreStat   // first core's stat block per chain (RunBatch accounting)
	entry        []BatchOutput // first-stage dispatch per chain (RunBatch)
	entryOut     []*exec.Ring  // first stage's handoff ring per chain (nil when the chain is one group)
	chainMu      []sync.Mutex  // serializes RunBatch feeders that share a chain
	handoffs     []*exec.Ring  // pipelined only: all inter-stage rings
	handoffChain []int         // chain owning each handoff ring
	handoffFrom  []int         // producer core of each handoff ring; the next core consumes it
	stats        []*CoreStat
	instances    []*Instance // one per chain, in chain order

	// lost counts packets the plan itself recycled because a handoff
	// ring rejected them — possible only when a stage emits more packets
	// than it polled, since polling is capped by downstream free space.
	lost atomic.Uint64
}

// NewPlan materializes a placement plan from a Program. Parallel uses
// every core as an independent chain.
// Pipelined cuts the trunk into G = min(cores, cuttable segments)
// groups of consecutive cores per chain — cuts land only on boundaries
// the graph topology allows — and replicates the chain cores/G times;
// cores beyond chains×G are left idle (they appear in the schedule with
// no tasks). Auto resolves to one of the two by resolveAuto's rule.
func NewPlan(cfg PlanConfig) (*Plan, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("click: plan needs at least 1 core, got %d", cfg.Cores)
	}
	prog := cfg.Program
	if prog == nil {
		return nil, fmt.Errorf("click: plan needs a Program")
	}
	if cfg.Kind != Parallel && cfg.Kind != Pipelined && cfg.Kind != Auto {
		return nil, fmt.Errorf("click: unknown plan kind %d", int(cfg.Kind))
	}
	if cfg.KP <= 0 {
		cfg.KP = 32
	}
	if cfg.InputCap <= 0 {
		cfg.InputCap = 4096
	}
	if cfg.HandoffCap <= 0 {
		cfg.HandoffCap = 1024
	}

	// Chain 0's instance reveals the graph geometry (segment count, cut
	// constraints); every further chain must match it.
	first, err := prog.Instantiate(0)
	if err != nil {
		return nil, err
	}

	kind, decision := cfg.Kind, ""
	if kind == Auto {
		kind, decision = resolveAuto(cfg, first)
	}

	// Every chain runs on groups consecutive cores: one for parallel,
	// one per trunk stage for pipelined.
	groups := 1
	if kind == Pipelined {
		groups = min(cfg.Cores, cuttableGroups(first.noCut))
	}
	chains := cfg.Cores / groups
	if cfg.Kind == Auto && kind == Pipelined {
		chains = 1 // the pinned state stays in one chain; spare cores idle
	}

	// State-classification gate. A plan with more than one chain clones
	// the whole graph per chain, splitting every element's state N ways;
	// chain 0's instance declares which elements make that unsafe.
	if chains > 1 {
		if names := first.ElementsOfClass(Shared); len(names) > 0 {
			return nil, fmt.Errorf("click: %d-chain %s plan would clone shared-state elements %v; shared elements pin the graph to a single chain",
				chains, kind, names)
		}
		if names := first.ElementsOfClass(PerFlow); len(names) > 0 && !cfg.FlowSteered {
			return nil, fmt.Errorf("click: %d-chain %s plan would split per-flow state across clones of %v; feed the chains through flow-consistent steering (PlanConfig.FlowSteered) or run one chain",
				chains, kind, names)
		}
	}

	p := &Plan{kind: kind, cores: cfg.Cores, decision: decision, sched: NewSchedule(cfg.Cores)}
	instance := func(chain int) (*Instance, error) {
		if chain == 0 {
			return first, nil
		}
		in, err := prog.Instantiate(chain)
		if err != nil {
			return nil, err
		}
		// The plan's geometry (groups, cut points) comes from chain 0; a
		// chain with a different trunk length or different cut
		// constraints would be cut somewhere its own topology forbids.
		if len(in.segs) != len(first.segs) {
			return nil, fmt.Errorf("click: program chain %d has %d trunk segments, chain 0 has %d — Build must be structurally deterministic",
				chain, len(in.segs), len(first.segs))
		}
		for b, forbidden := range in.noCut {
			if forbidden != first.noCut[b] {
				return nil, fmt.Errorf("click: program chain %d allows different trunk cuts than chain 0 (boundary %d) — Build must be structurally deterministic",
					chain, b)
			}
		}
		return in, nil
	}
	p.chains = chains
	for ch := 0; ch < p.chains; ch++ {
		in, err := instance(ch)
		if err != nil {
			return nil, err
		}
		if err := p.buildChain(cfg, ch, groups, in); err != nil {
			return nil, err
		}
	}
	p.chainMu = make([]sync.Mutex, p.chains)
	return p, nil
}

// resolveAuto is Placement: Auto, decided from chain 0's instance by
// the rule §4.2 reads off its measurements: run the whole graph per
// core (Parallel) unless some element holds state that cloning would
// split — a Shared element, or a PerFlow one without flow-consistent
// steering, exactly what the cloning gate refuses. Such a graph runs
// as one Pipelined chain, which owns that state alone. One core has
// nothing to split, so it is Parallel. The decision names the
// elements that made it.
func resolveAuto(cfg PlanConfig, in *Instance) (PlanKind, string) {
	if cfg.Cores == 1 {
		return Parallel, "auto: 1 core → parallel"
	}
	if names := in.ElementsOfClass(Shared); len(names) > 0 {
		return Pipelined, fmt.Sprintf("auto: shared-state elements %v pin the graph to one chain → pipelined, 1 chain", names)
	}
	if names := in.ElementsOfClass(PerFlow); len(names) > 0 && !cfg.FlowSteered {
		return Pipelined, fmt.Sprintf("auto: per-flow elements %v without flow steering pin the graph to one chain → pipelined, 1 chain", names)
	}
	return Parallel, fmt.Sprintf("auto: no element pins state to one chain → parallel, %d chains", cfg.Cores)
}

// buildChain materializes one pipeline replica on cores
// [chain·groups, (chain+1)·groups): the whole graph on one core for
// parallel chains, trunk segments grouped contiguously across the
// cores (joined by handoff rings at the cut boundaries) for pipelined
// ones. The instance's graph arrives fully wired; cutting a boundary
// rewires the upstream trunk element's output 0 from its synchronous
// binding into a handoff ring.
func (p *Plan) buildChain(cfg PlanConfig, chain, groups int, in *Instance) error {
	first := chain * groups
	input := exec.NewRing(cfg.InputCap)
	p.inputs = append(p.inputs, input)
	p.inputCore = append(p.inputCore, first)
	p.instances = append(p.instances, in)

	bounds := chooseBounds(len(in.segs), groups, in.noCut)
	upstream := input
	for g := 0; g < groups; g++ {
		lo, hi := bounds[g], bounds[g+1]
		var downstream *exec.Ring
		last := in.segs[hi-1]
		if g < groups-1 {
			// Cut boundary: the group's last trunk element emits into a
			// handoff ring polled by the next core.
			downstream = exec.NewRing(cfg.HandoffCap)
			p.handoffs = append(p.handoffs, downstream)
			p.handoffChain = append(p.handoffChain, chain)
			p.handoffFrom = append(p.handoffFrom, first+g)
			if err := p.wireRing(last, downstream); err != nil {
				return fmt.Errorf("click: segment %q: %w", in.names[hi-1], err)
			}
		} else if cfg.Sink != nil {
			if bound, ok := last.(interface{ Connected(int) bool }); ok && bound.Connected(0) {
				return fmt.Errorf("click: Sink configured but trunk end %q already connects output 0", in.names[hi-1])
			}
			sink := cfg.Sink(chain)
			if sink == nil {
				return fmt.Errorf("click: Sink(%d) returned nil", chain)
			}
			if err := wireStage(last, sink); err != nil {
				return fmt.Errorf("click: sink for chain %d: %w", chain, err)
			}
		}

		stat := &CoreStat{Core: first + g, Chain: chain, Stages: strings.Join(in.names[lo:hi], "+")}
		p.stats = append(p.stats, stat)
		dispatch := BatchDispatch(in.segs[lo], 0)
		if g == 0 {
			p.inputStat = append(p.inputStat, stat)
			p.entry = append(p.entry, dispatch)
			p.entryOut = append(p.entryOut, downstream)
		}
		p.sched.MustBind(stat.Core, p.pollTask(upstream, downstream, dispatch, cfg.KP, stat, chain, g == 0))
		upstream = downstream
	}
	return nil
}

// pollTask builds the polling loop body for one core: pull up to kp
// packets from upstream — capped by the downstream ring's free space so
// a full handoff ring backpressures instead of dropping — and push them
// through the core's stage group as one batch. Each run pins the core's
// pool shard on the context, so every recycle and allocation inside the
// dispatched graph runs against core-local freelist state. A
// pipelined first stage takes the chain's RunBatch lock, since RunBatch
// runs the same stage, and produces into the same handoff ring, inline.
func (p *Plan) pollTask(upstream, downstream *exec.Ring, dispatch BatchOutput, kp int, stat *CoreStat, chain int, firstStage bool) Task {
	scratch := pkt.NewBatch(kp)
	shard := pkt.DefaultPool.Shard(stat.Core)
	inline := firstStage && downstream != nil
	return TaskFunc(func(ctx *Context) int {
		if inline {
			p.chainMu[chain].Lock()
			defer p.chainMu[chain].Unlock()
		}
		ctx.PoolShard = shard
		limit := kp
		if downstream != nil {
			if room := downstream.Free(); room < limit {
				limit = room
			}
			if limit == 0 {
				return 0 // downstream full: leave packets queued upstream
			}
		}
		scratch.Reset()
		n := upstream.PopBatchInto(scratch, limit)
		stat.polls.Add(1)
		if n == 0 {
			stat.empty.Add(1)
			return 0
		}
		stat.packets.Add(uint64(n))
		if downstream != nil {
			stat.handoffs.Add(1)
		}
		dispatch(ctx, scratch)
		return n
	})
}

// RunBatch runs b through chain's first-stage group on the calling
// goroutine, with no input ring in between, and credits the chain's
// first-stage CoreStat with one poll of b.Len() packets, which it
// returns. b comes back empty. Feeders sharing a chain serialize on a
// per-chain lock, which a pipelined first stage's own poll also takes.
//
// A pipelined first group ends in a handoff ring. RunBatch feeds it
// chunks no larger than the ring and, while the Runner is started,
// waits for room for each chunk — the backpressure a polling first
// stage gets by capping its poll; without a Runner nothing would drain
// the ring, so overflow counts in Drops as for any handoff. The caller
// must not race Start/Stop, and must not feed a parallel chain's input
// ring while its Runner is started.
func (p *Plan) RunBatch(chain int, ctx *Context, b *pkt.Batch) int {
	n := b.Len()
	if n == 0 {
		return 0
	}
	mu := &p.chainMu[chain]
	mu.Lock()
	defer mu.Unlock()
	stat := p.inputStat[chain]
	stat.polls.Add(1)
	stat.packets.Add(uint64(n))
	out := p.entryOut[chain]
	if out == nil {
		p.entry[chain](ctx, b)
		return n
	}
	// A batch larger than the ring could never find room for itself at
	// once, so it goes through in ring-sized chunks.
	part, size := b, out.Cap()
	if n > size {
		part = pkt.NewBatch(size)
	}
	for lo := 0; lo < n; lo += size {
		if part != b {
			part.Reset()
			for _, pk := range b.Packets()[lo:min(lo+size, n)] {
				part.Add(pk)
			}
		}
		for p.runner != nil && out.Free() < part.Len() {
			runtime.Gosched()
		}
		stat.handoffs.Add(1)
		p.entry[chain](ctx, part)
	}
	b.Reset()
	return n
}

// wireStage connects from's output port 0 to to's input port 0,
// exactly as Router.Connect does.
func wireStage(from, to Element) error {
	setter, ok := from.(BatchOutputSetter)
	if !ok {
		return fmt.Errorf("element %T has no outputs", from)
	}
	setter.SetBatchOutput(0, BatchDispatch(to, 0))
	return nil
}

// wireRing connects from's output port 0 to an SPSC handoff ring,
// replacing the synchronous binding the graph wiring installed. With
// backpressure-capped polling the ring cannot overflow from pass-through
// traffic; packets a stage *generates* beyond what it polled can still
// overflow, in which case they are counted as plan losses and recycled.
func (p *Plan) wireRing(from Element, ring *exec.Ring) error {
	setter, ok := from.(BatchOutputSetter)
	if !ok {
		return fmt.Errorf("element %T has no outputs", from)
	}
	setter.SetBatchOutput(0, func(ctx *Context, b *pkt.Batch) {
		ring.PushBatch(b)
		if n := b.Len(); n > 0 {
			p.lost.Add(uint64(n))
			ctx.RecycleBatch(b)
		}
		b.Reset()
	})
	return nil
}

// Kind reports the allocation this plan materializes (never Auto).
func (p *Plan) Kind() PlanKind { return p.kind }

// Decision reports how Auto resolved to Kind, naming the elements that
// decided it; empty when the plan was built with an explicit kind.
func (p *Plan) Decision() string { return p.decision }

// Cores reports the schedule width (including any idle cores).
func (p *Plan) Cores() int { return p.cores }

// Chains reports how many independent pipeline replicas the plan runs —
// equal to Cores for parallel plans.
func (p *Plan) Chains() int { return p.chains }

// Input returns chain i's input ring. The caller is the single producer
// for that ring; feed each chain from exactly one goroutine.
func (p *Plan) Input(i int) *exec.Ring { return p.inputs[i] }

// PlanRing describes one of a plan's rings for observability, scoring,
// and teardown: Role is "input" (caller-fed, one per chain) or
// "handoff" (inter-stage, pipelined only); Chain is the replica it
// belongs to. From/To are the producer and consumer schedule cores —
// From is -1 for input rings (the producer is the external feeder).
type PlanRing struct {
	Role  string
	Chain int
	From  int
	To    int
	Ring  *exec.Ring
}

// Rings lists every ring the plan owns, inputs first, in chain order —
// the walk a stats snapshot or a drain barrier makes.
func (p *Plan) Rings() []PlanRing {
	out := make([]PlanRing, 0, len(p.inputs)+len(p.handoffs))
	for i, r := range p.inputs {
		out = append(out, PlanRing{Role: "input", Chain: i, From: -1, To: p.inputCore[i], Ring: r})
	}
	for i, r := range p.handoffs {
		out = append(out, PlanRing{Role: "handoff", Chain: p.handoffChain[i],
			From: p.handoffFrom[i], To: p.handoffFrom[i] + 1, Ring: r})
	}
	return out
}

// Instance returns chain i's materialized graph copy.
func (p *Plan) Instance(i int) *Instance { return p.instances[i] }

// Router returns chain i's element graph.
func (p *Plan) Router(i int) *Router { return p.instances[i].router }

// Stats returns the per-core counter blocks, indexed by core (idle
// cores past the last chain have none).
func (p *Plan) Stats() []*CoreStat { return p.stats }

// Drops reports packets the plan lost — recycled because a handoff ring
// rejected them. Input-ring rejections are not losses: the feeding
// caller keeps ownership of a rejected packet and decides its fate.
func (p *Plan) Drops() uint64 { return p.lost.Load() }

// Rejections totals backpressure events across the plan's input and
// handoff rings (rejected pushes whether or not the packet was lost).
func (p *Plan) Rejections() uint64 {
	var d uint64
	for _, r := range p.inputs {
		d += r.Rejected()
	}
	for _, r := range p.handoffs {
		d += r.Rejected()
	}
	return d
}

// Queued reports packets currently sitting in the plan's rings —
// useful for drain loops.
func (p *Plan) Queued() int {
	q := 0
	for _, r := range p.inputs {
		q += r.Len()
	}
	for _, r := range p.handoffs {
		q += r.Len()
	}
	return q
}

// Processed totals packets that entered a pipeline across all cores'
// first stages (each packet counts once per core that handled it).
func (p *Plan) Processed() uint64 {
	var n uint64
	for _, s := range p.stats {
		n += s.Packets()
	}
	return n
}

// Start launches the plan on real cores via the hardened Runner. A
// stopped plan may start again: each Start gets a fresh Runner.
func (p *Plan) Start() error {
	if p.runner != nil {
		return fmt.Errorf("click: plan already started")
	}
	p.runner = NewRunner(p.sched)
	return p.runner.Start()
}

// Stop halts the Runner and waits for the per-core goroutines (a no-op
// on a plan that is not started).
func (p *Plan) Stop() {
	if p.runner != nil {
		p.runner.Stop()
		p.runner = nil
	}
}

// RunStep executes one quantum of the given core synchronously — the
// virtual-core hook: the cluster simulator and deterministic tests
// drive the same plan the Runner would, without goroutines.
func (p *Plan) RunStep(core int, ctx *Context) int { return p.sched.RunStep(core, ctx) }

// Schedule exposes the underlying static core schedule.
func (p *Plan) Schedule() *Schedule { return p.sched }

// Describe renders the placement map: which stages run on which core
// and where the handoff rings sit.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s plan: %d cores, %d chains, %d handoff rings\n",
		p.kind, p.cores, p.chains, len(p.handoffs))
	for _, s := range p.stats {
		fmt.Fprintf(&b, "  core %d: chain %d, stages %s\n", s.Core, s.Chain, s.Stages)
	}
	for i := range p.handoffs {
		fmt.Fprintf(&b, "  handoff %d: chain %d, core %d -> core %d\n",
			i, p.handoffChain[i], p.handoffFrom[i], p.handoffFrom[i]+1)
	}
	return b.String()
}
