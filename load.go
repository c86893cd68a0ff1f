package routebricks

import (
	"fmt"
	"sync"
	"sync/atomic"

	"routebricks/internal/click"
	"routebricks/internal/elements"
	"routebricks/internal/exec"
	"routebricks/internal/pkt"
	"routebricks/internal/stats"
)

// This file is the graph-first public surface: Load takes a router
// written in the Click configuration language and materializes it as a
// multi-core placement plan — the paper's programmability claim ("fully
// programmable using the familiar Click/Linux environment", §1) joined
// to its parallelism claim (§4.2's core allocations) behind one call.
// The returned Pipeline is a live control plane, not a build-once
// artifact: the placement can be left to a rule over the graph's state
// classes (Placement: Auto), the whole program or its placement swapped
// without restart (Reload), and everything observed through one typed
// Snapshot (see control.go and snapshot.go).

// Element is a Click packet-processing module (see internal/click).
type Element = click.Element

// Registry maps element class names to factories for Click-language
// configurations.
type Registry = click.Registry

// Router is a named element graph.
type Router = click.Router

// Packet is the framework's packet buffer.
type Packet = pkt.Packet

// Ring is the lock-free SPSC packet ring used for plan inputs.
type Ring = exec.Ring

// PlanKind selects the §4.2 core allocation for a loaded pipeline.
type PlanKind = click.PlanKind

// Snapshot is the unified observability view of a Pipeline — see
// Pipeline.Snapshot.
type Snapshot = stats.Snapshot

// The §4.2 core allocations, plus the rule that picks one.
const (
	// Parallel clones the whole graph onto every core ("one core per
	// queue, one core per packet") — the paper's winning allocation.
	Parallel = click.Parallel
	// Pipelined cuts the graph's trunk into per-core stages joined by
	// SPSC handoff rings.
	Pipelined = click.Pipelined
	// Auto picks by rule when the plan is built (Load and every
	// Reload): Parallel, unless the graph holds an element whose state
	// cloning would split (a Shared one, such as Shaper or ESPEncap),
	// in which case one Pipelined chain. The decision, naming those
	// elements, is recorded in Describe() and Snapshot.Decision.
	Auto = click.Auto
)

// Options parameterizes Load (and Reload, which applies the same
// validation and defaults). Numeric fields left 0 take the documented
// default at Load and inherit the pipeline's current value at Reload;
// negative values are rejected up front with a descriptive error
// rather than silently rounded downstream.
type Options struct {
	// Cores is the number of datapath cores (default 1).
	Cores int
	// Placement picks the core allocation (default Parallel). Auto
	// applies its rule to the graph being planned and builds only the
	// plan it picks.
	Placement PlanKind
	// KP is the poll batch size (default 32, the paper's tuned kp).
	KP int
	// InputCap sizes each chain's input ring (default 4096);
	// HandoffCap each inter-stage handoff ring (default 1024). Ring
	// capacities round UP to the next power of two (exec.NewRing), so
	// e.g. InputCap: 3000 yields 4096-slot rings.
	InputCap   int
	HandoffCap int
	// Registry resolves element classes in the Click text (default
	// elements.StandardRegistry — the full zero-resource library).
	Registry Registry
	// Prebound supplies ready-made element instances addressable by
	// name from the Click text — route tables bound to FIBs, device
	// rings, VLB balancers. It is called once per chain so per-core
	// resources come out independent by construction; instances that
	// are shared across chains must be safe for concurrent use. Reload
	// calls it again for the new plan's chains, which is how
	// prebound resources persist across a swap: the same closure hands
	// the same shared instances to the replacement graph.
	Prebound func(chain int) map[string]Element
	// FIB, when non-nil, binds the Click text's `fib` name to a live
	// route table (see NewFIB): every chain gets an LPMLookup element
	// reading through the shared FIB, one snapshot load per batch, and
	// route updates through the same handle (or Pipeline.Routes()) reach
	// the datapath without a reload. A `fib` entry returned by Prebound
	// takes precedence. Like Prebound, the handle is inherited across
	// Reload.
	FIB *RouteAdmin
	// Entry names the graph's entry element when auto-detection (the
	// unique element with no incoming connections) is ambiguous.
	Entry string
	// Sink, when non-nil, builds a terminal element per chain and wires
	// it after the trunk's dangling last output.
	Sink func(chain int) Element
}

// validate rejects malformed options with a descriptive error instead
// of letting zero-value defaulting round them away inside exec.NewRing.
func (o Options) validate() error {
	if o.Cores < 0 {
		return fmt.Errorf("routebricks: Cores must be non-negative (0 means the default 1), got %d", o.Cores)
	}
	if o.KP < 0 {
		return fmt.Errorf("routebricks: KP must be non-negative (0 means the default 32), got %d", o.KP)
	}
	if o.InputCap < 0 {
		return fmt.Errorf("routebricks: InputCap must be non-negative (0 means the default 4096; values round up to a power of two), got %d", o.InputCap)
	}
	if o.HandoffCap < 0 {
		return fmt.Errorf("routebricks: HandoffCap must be non-negative (0 means the default 1024; values round up to a power of two), got %d", o.HandoffCap)
	}
	if o.Placement != Parallel && o.Placement != Pipelined && o.Placement != Auto {
		return fmt.Errorf("routebricks: unknown Placement %d", int(o.Placement))
	}
	return nil
}

// withDefaults fills the documented Load defaults.
func (o Options) withDefaults() Options {
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.KP == 0 {
		o.KP = 32
	}
	if o.InputCap == 0 {
		o.InputCap = 4096
	}
	if o.HandoffCap == 0 {
		o.HandoffCap = 1024
	}
	if o.Registry == nil {
		o.Registry = elements.StandardRegistry()
	}
	return o
}

// merge layers next over cur for Reload: zero numeric fields,
// nil funcs, and an empty Entry inherit the pipeline's current values.
// Placement is taken as given — its zero value is Parallel, so callers
// that want to keep a non-default placement pass p.Placement() (or Auto
// to re-decide).
func merge(cur, next Options) Options {
	if next.Cores == 0 {
		next.Cores = cur.Cores
	}
	if next.KP == 0 {
		next.KP = cur.KP
	}
	if next.InputCap == 0 {
		next.InputCap = cur.InputCap
	}
	if next.HandoffCap == 0 {
		next.HandoffCap = cur.HandoffCap
	}
	if next.Registry == nil {
		next.Registry = cur.Registry
	}
	if next.Prebound == nil {
		next.Prebound = cur.Prebound
	}
	if next.FIB == nil {
		next.FIB = cur.FIB
	}
	if next.Entry == "" {
		next.Entry = cur.Entry
	}
	if next.Sink == nil {
		next.Sink = cur.Sink
	}
	return next
}

// Pipeline is a loaded, placed, runnable Click program, and the live
// control plane over it: Start/Stop/Step drive the current plan,
// Reload swaps it under a drain barrier, Snapshot observes it.
//
// Concurrency: the data-plane accessors (Push, RunBatch, Step,
// Snapshot, ...) may be called from any goroutine and remain safe across
// concurrent Reload calls — a swap briefly blocks them at the
// drain barrier. Pointers obtained through Input, Router, Element, or
// Plan refer to the plan that was current at call time and go stale
// when a swap installs a new one; re-fetch after a reload, or stick to
// Push/Snapshot, which always address the live plan.
type Pipeline struct {
	// pmu guards the identity of the current plan: data-plane accessors
	// hold it shared, Reload exclusively while it drains the old
	// plan and install the new one.
	pmu  sync.RWMutex
	plan *click.Plan
	ctx  click.Context // Step's context, on the wall clock

	text string  // Click text of the current plan
	opts Options // normalized options of the current plan (Placement as requested)

	running    bool   // Start..Stop
	generation uint64 // bumped once per successful swap

	// drainDrops counts packets a bounded reload drain had to recycle
	// because the old graph would not drain them (a wedged terminal);
	// they are accounted in Snapshot().Drops.
	drainDrops atomic.Uint64
}

// Load parses a Click-language configuration and materializes it across
// opts.Cores cores under the chosen placement. The graph is
// instantiated once per chain — every core of a Parallel plan runs an
// independent copy of the whole graph; a Pipelined plan cuts the
// graph's trunk across cores wherever the topology allows (side
// branches stay with the trunk element that feeds them). Placement:
// Auto is resolved by its rule on the one plan built (see Describe for
// the recorded decision); an explicit placement does no extra work.
//
// The returned pipeline is idle: feed packets into Input(chain) /
// Push and call Start (real goroutines) or Step (single-threaded and
// deterministic in scheduling) to move them. Either way, timed elements
// (Reassembler, Shaper, Tap, Stamp) read the real clock.
func Load(clickText string, opts Options) (*Pipeline, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	plan, err := buildPlan(clickText, opts)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		plan: plan,
		ctx:  click.Context{NowNS: click.WallNS},
		text: clickText,
		opts: opts,
	}, nil
}

// buildPlan parses text and materializes a plan under opts (which must
// already be validated and defaulted); click.NewPlan resolves
// Placement: Auto.
func buildPlan(text string, opts Options) (*click.Plan, error) {
	prebound := opts.Prebound
	if opts.FIB != nil {
		// Bind the shared live FIB to the `fib` name for every chain —
		// unless the caller's Prebound already supplies one, which wins.
		inner := prebound
		fib := opts.FIB.engine()
		prebound = func(chain int) map[string]Element {
			var m map[string]Element
			if inner != nil {
				m = inner(chain)
			}
			if m == nil {
				m = make(map[string]Element, 1)
			}
			if _, ok := m["fib"]; !ok {
				m["fib"] = elements.NewLPMLookup(fib)
			}
			return m
		}
	}
	prog := click.ParseProgram(text, opts.Registry, prebound)
	prog.Entry = opts.Entry
	return click.NewPlan(click.PlanConfig{
		Kind:       opts.Placement,
		Cores:      opts.Cores,
		Program:    prog,
		KP:         opts.KP,
		InputCap:   opts.InputCap,
		HandoffCap: opts.HandoffCap,
		Sink:       opts.Sink,
		// The pipeline always steers by flow hash (PushFlow), so cloned
		// per-flow elements are safe by construction.
		FlowSteered: true,
	})
}

// Start launches the pipeline's cores as real goroutines.
func (p *Pipeline) Start() error {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if p.running {
		return fmt.Errorf("routebricks: pipeline already started")
	}
	if err := p.plan.Start(); err != nil {
		return err
	}
	p.running = true
	return nil
}

// Stop halts the cores and waits for them to exit.
func (p *Pipeline) Stop() {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	if p.running {
		p.plan.Stop()
		p.running = false
	}
}

// Step executes one quantum of every core synchronously on the calling
// goroutine — single-threaded and deterministic in scheduling, for
// tests and simulations. Timed elements still read the real clock
// (click.WallNS), so what they do depends on real timing. It reports
// packets moved and must not be mixed with Start. Exactly one
// goroutine may drive Step; Reload from another goroutine is
// still safe (the swap serializes against the stepper).
func (p *Pipeline) Step() int {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	n := 0
	for core := 0; core < p.plan.Cores(); core++ {
		n += p.plan.RunStep(core, &p.ctx)
	}
	p.ctx.TakeCycles()
	return n
}

// Chains reports the number of independent graph replicas (== Cores
// for parallel placements).
func (p *Pipeline) Chains() int {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.plan.Chains()
}

// Cores reports the plan width.
func (p *Pipeline) Cores() int {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.plan.Cores()
}

// Placement reports the current plan's (resolved) core allocation.
func (p *Pipeline) Placement() PlanKind {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.plan.Kind()
}

// Generation reports how many plan swaps (Reload) have been
// installed; 0 is the plan Load built. Snapshot counters reset at each
// generation boundary.
func (p *Pipeline) Generation() uint64 {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.generation
}

// Program reports the Click text of the current plan: the last text a
// Reload installed, or the one Load built.
func (p *Pipeline) Program() string {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.text
}

// Input returns chain i's input ring (nil when i is out of range). Each
// ring is single-producer: feed it from exactly one goroutine. The
// pointer refers to the current plan and goes stale after Reload;
// producers that must stay valid across swaps use Push.
func (p *Pipeline) Input(i int) *Ring {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	if i < 0 || i >= p.plan.Chains() {
		return nil
	}
	return p.plan.Input(i)
}

// Push feeds one packet to chain i, reporting false when the ring is
// full or a reload is in progress (the caller keeps ownership of a
// rejected packet and may retry). It never blocks on the drain
// barrier — a swap in progress reads as backpressure, so socket-reader
// feeders keep servicing their sockets. Out-of-range chains reject
// rather than panic, so feeders keyed on a stale Chains() survive a
// swap that narrowed the plan.
func (p *Pipeline) Push(i int, pk *Packet) bool {
	if !p.pmu.TryRLock() {
		return false // reload in progress: the drain barrier owns the plan
	}
	defer p.pmu.RUnlock()
	if i < 0 || i >= p.plan.Chains() {
		return false
	}
	return p.plan.Input(i).Push(pk)
}

// RunBatch runs b to completion on the calling goroutine: it dispatches
// the batch into the first-stage group of chain queue % Chains() (queue
// must be non-negative) and credits that chain's first-stage CoreStat,
// so Snapshot sees the traffic. It returns the packets dispatched and
// leaves b empty. Set ctx.PoolShard so graph exits recycle into the
// caller's shard.
//
// It is the entry for callers that own a receive queue, such as a
// socket loop: a parallel plan then runs wholly on the callers and is
// never started, while a pipelined plan runs its first group here and
// needs Start for the stages behind it. Unlike Push it blocks through a
// Reload: the caller is the datapath, and a swap is a short
// pause, not backpressure. Several goroutines may feed one chain; do
// not mix RunBatch with Push on a started parallel plan.
func (p *Pipeline) RunBatch(queue int, ctx *click.Context, b *pkt.Batch) int {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.plan.RunBatch(queue%p.plan.Chains(), ctx, b)
}

// Router returns chain i's element graph, for inspection (counters,
// per-chain state) and DOT export. Stale after a swap.
func (p *Pipeline) Router(i int) *Router {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	if i < 0 || i >= p.plan.Chains() {
		return nil
	}
	return p.plan.Router(i)
}

// Element returns the named element of chain i's graph, or nil.
func (p *Pipeline) Element(chain int, name string) Element {
	if r := p.Router(chain); r != nil {
		return r.Get(name)
	}
	return nil
}

// Queued reports packets currently sitting in the pipeline's rings —
// Snapshot().Queued without building the rest of the Snapshot, for
// drain loops.
func (p *Pipeline) Queued() int {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.plan.Queued()
}

// Describe renders the placement map — which trunk segments run on
// which core, where the handoff rings sit — plus the plan generation
// and, under Placement: Auto, the rule's decision.
func (p *Pipeline) Describe() string {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	desc := p.plan.Describe()
	desc += fmt.Sprintf("  generation %d\n", p.generation)
	if d := p.plan.Decision(); d != "" {
		desc += "  " + d + "\n"
	}
	return desc
}

// DOT renders a chain's element graph in Graphviz format, titled with
// the plan kind, generation, and chain so hot-reloaded graphs are
// distinguishable. The zero-argument form keeps the historical
// behavior of rendering chain 0.
func (p *Pipeline) DOT(chain ...int) string {
	c := 0
	if len(chain) > 0 {
		c = chain[0]
	}
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	if c < 0 || c >= p.plan.Chains() {
		return ""
	}
	return p.plan.Router(c).DOTTitled(fmt.Sprintf("%s plan, gen %d, chain %d", p.plan.Kind(), p.generation, c))
}

// Routes returns the live FIB handle the pipeline was loaded with
// (Options.FIB), or nil when the pipeline binds its route table some
// other way. The handle stays valid across Reload — the FIB is
// inherited like Prebound — so route churn and plan swaps compose.
func (p *Pipeline) Routes() *RouteAdmin {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.opts.FIB
}

// Plan exposes the underlying placement plan for advanced callers.
// Stale after Reload.
func (p *Pipeline) Plan() *click.Plan {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	return p.plan
}
