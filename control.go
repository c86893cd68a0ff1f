package routebricks

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"routebricks/internal/click"
	"routebricks/internal/pkt"
	"routebricks/internal/rss"
	"routebricks/internal/trafficgen"
)

// This file is the adaptive half of the control plane: Placement: Auto
// calibration (§4.2 says the best core allocation depends on the
// workload; we measure instead of hard-coding) and the hot-swap
// machinery behind Reload and Replan (§5's operators re-tune as traffic
// shifts; rbrouter wires Reload to SIGHUP).

// Calibration parameters. The workload is small enough to finish in
// well under a millisecond per candidate and fixed-seed so the same
// graph always yields the same decision.
const (
	// calibPackets is the synthetic workload size per candidate.
	calibPackets = 1024
	// maxCalibRounds bounds a calibration against graphs that never
	// drain (a cycle that regenerates packets); the score covers
	// whatever moved.
	maxCalibRounds = 1 << 16
)

// CalibrationResult records one Placement: Auto candidate measurement:
// the deterministic calibration workload driven through a real
// materialized plan via RunStep, scored as the bottleneck core's
// charged virtual cycles plus the cost model's price for every
// observed ring crossing (same-socket handoffs at the measured
// per-packet cost, cross-socket ones at the model's premium). Lower
// score wins.
type CalibrationResult struct {
	Plan             string  `json:"plan"`
	Packets          int     `json:"packets"`
	Rounds           int     `json:"rounds"`
	BottleneckCycles float64 `json:"bottleneck_cycles"`
	HandoffPackets   uint64  `json:"handoff_packets"`
	// CrossSocketPackets is how many of the handoff crossings spanned a
	// socket boundary under the candidate's topology.
	CrossSocketPackets uint64 `json:"cross_socket_packets,omitempty"`
	// ModelCost is the cost model's total price for the candidate's
	// ring crossings, amortized per chain — what the flat
	// 120-cycles-per-handoff term used to approximate.
	ModelCost float64 `json:"model_cost"`
	// Model names the cost model and its terms.
	Model string  `json:"model,omitempty"`
	Score float64 `json:"score"`

	kind click.PlanKind
}

// Kind reports the candidate's placement.
func (c CalibrationResult) Kind() PlanKind { return c.kind }

// Calibration returns the candidate measurements behind the current
// placement decision — empty unless the current plan was chosen by
// Placement: Auto.
func (p *Pipeline) Calibration() []CalibrationResult {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	out := make([]CalibrationResult, len(p.calib))
	copy(out, p.calib)
	return out
}

// calibrate resolves Placement: Auto: it materializes one candidate
// plan per allocation, drives the same deterministic synthetic workload
// through each (single-threaded, via RunStep — reproducible by
// construction), and picks the lower score. Ties go to Parallel, the
// paper's finding.
func calibrate(prog *click.Program, opts Options, segWeights []float64) (click.PlanKind, string, []CalibrationResult, error) {
	if opts.Cores <= 1 {
		return Parallel, "auto: 1 core — allocations identical, parallel chosen", nil, nil
	}
	var results []CalibrationResult
	best := Parallel
	bestScore := 0.0
	for _, kind := range []click.PlanKind{Parallel, Pipelined} {
		res, err := measure(prog, opts, kind, segWeights)
		if err != nil {
			return 0, "", nil, fmt.Errorf("routebricks: auto calibration (%s): %w", kind, err)
		}
		results = append(results, res)
		if len(results) == 1 || res.Score < bestScore {
			best = kind
			bestScore = res.Score
		}
	}
	decision := fmt.Sprintf(
		"auto: calibrated %d packets at %d cores — parallel score %.0f vs pipelined %.0f (bottleneck cycles + %s) → %s",
		calibPackets, opts.Cores, results[0].Score, results[1].Score, opts.costModel().Describe(), best)
	return best, decision, results, nil
}

// measure builds one candidate plan, feeds it the calibration stream,
// and steps every core round-robin until the plan drains. The score
// models steady-state throughput: the busiest core's charged cycles
// (elements charge their calibrated per-packet costs to the Context)
// plus the cost model's price for every observed ring crossing,
// amortized per chain.
func measure(prog *click.Program, opts Options, kind click.PlanKind, segWeights []float64) (CalibrationResult, error) {
	plan, err := click.NewPlan(planConfig(prog, opts, kind, segWeights))
	if err != nil {
		return CalibrationResult{}, err
	}
	pkts := trafficgen.Calibration(calibPackets)
	perCore := make([]float64, plan.Cores())
	var ctx click.Context
	fed, rounds := 0, 0
	for {
		for fed < len(pkts) {
			if !plan.Input(fed % plan.Chains()).Push(pkts[fed]) {
				break
			}
			fed++
		}
		moved := 0
		for core := 0; core < plan.Cores(); core++ {
			moved += plan.RunStep(core, &ctx)
			perCore[core] += ctx.TakeCycles()
		}
		rounds++
		if (fed == len(pkts) && moved == 0 && plan.Queued() == 0) || rounds >= maxCalibRounds {
			break
		}
	}
	// Every core polls exactly one upstream ring, so a ring's crossing
	// count is its consumer core's pulled-packet counter; the model
	// prices each ring by its endpoints (input locality, same- vs
	// cross-socket handoff).
	pulled := make(map[int]uint64, len(plan.Stats()))
	for _, s := range plan.Stats() {
		pulled[s.Core] = s.Packets()
	}
	topo := plan.Topology()
	var modelCost float64
	var crossings, crossSocket uint64
	for _, pr := range plan.Rings() {
		n := pulled[pr.To]
		modelCost += pr.Cost * float64(n)
		if pr.Role == "handoff" {
			crossings += n
			if topo.SocketOf(pr.From) != topo.SocketOf(pr.To) {
				crossSocket += n
			}
		}
	}
	modelCost /= float64(plan.Chains())
	bottleneck := 0.0
	for _, c := range perCore {
		if c > bottleneck {
			bottleneck = c
		}
	}
	return CalibrationResult{
		Plan:               kind.String(),
		Packets:            fed,
		Rounds:             rounds,
		BottleneckCycles:   bottleneck,
		HandoffPackets:     crossings,
		CrossSocketPackets: crossSocket,
		ModelCost:          modelCost,
		Model:              plan.Cost().Describe(),
		Score:              bottleneck + modelCost,
		kind:               kind,
	}, nil
}

// profileTrunkWeights measures where the program's cycles concentrate:
// one instrumented instance (chain 0) is driven with the deterministic
// calibration stream, the Profiler attributes each element's exclusive
// charged cycles, and Instance.TrunkWeights folds side-branch costs
// into the trunk segment that feeds them. The result weights the
// pipelined trunk cut so stages balance measured per-core cycles, not
// segment counts. Auto-only, for the same reason calibration is: the
// synthetic stream reaches prebound terminals, which explicit
// placements must not pay for. Returns nil (count-balanced cuts) when
// profiling is moot — one core, a single-segment trunk, or a graph
// that fails to instantiate (the plan build will surface that error).
func profileTrunkWeights(prog *click.Program, opts Options) []float64 {
	if opts.Cores <= 1 {
		return nil
	}
	in, err := prog.Instantiate(0)
	if err != nil || len(in.Segments()) < 2 {
		return nil
	}
	prof := click.NewProfiler()
	in.Router().Instrument(prof)
	entryName := in.Segments()[0]
	dispatch := click.BatchDispatch(in.Entry(), 0)
	var ctx click.Context
	batch := pkt.NewBatch(32)
	pkts := trafficgen.Calibration(calibPackets)
	for len(pkts) > 0 {
		n := min(32, len(pkts))
		batch.Reset()
		for _, p := range pkts[:n] {
			batch.Add(p)
		}
		pkts = pkts[n:]
		// The entry element has no instrumented upstream connection;
		// bracket the dispatch ourselves so its exclusive cycles are
		// attributed too (the profile_test idiom).
		fi := ctx.BeginFrame()
		dispatch(&ctx, batch)
		prof.Account(entryName, ctx.EndFrame(fi), uint64(n))
		ctx.TakeCycles()
	}
	return in.TrunkWeights(prof)
}

// ControllerConfig tunes the adaptive Replan controller — the
// goroutine that watches Snapshot deltas and calls Replan when the
// observed load diverges from what the current placement assumed.
// Zero fields take the documented defaults.
type ControllerConfig struct {
	// Interval between observations (default 250ms).
	Interval time.Duration
	// HighWater trips the controller when an interval's imbalance ratio
	// (max/mean per-core packets, Snapshot.Imbalance) reaches it
	// (default 1.5).
	HighWater float64
	// LowWater re-arms the controller only once imbalance falls below
	// it (default 1.1) — the hysteresis band that keeps a steady skewed
	// load from replanning over and over.
	LowWater float64
	// MinPackets skips intervals that moved fewer packets (idle noise
	// must neither trip nor re-arm the controller; default 256).
	MinPackets uint64
	// RejectedStep trips the controller when ring rejections grow by at
	// least this much in one interval, regardless of imbalance — the
	// backpressure signal (default 4096; negative disables).
	RejectedStep int64
	// Replan overrides the corrective action taken on a trip. The
	// default is Pipeline.Replan(Placement: Auto), whose calibration
	// drives synthetic packets through the pipeline's real prebound
	// terminals — hosts whose terminals touch the outside world (emit
	// on sockets, count into shared stats) supply a hook that decides
	// placement against hermetic stand-ins first and then replans with
	// the explicit winner (see rbrouter -replan-auto).
	Replan func() error
	// ReSteer opts the controller into flow re-steering as its first
	// corrective action: on an imbalance trip it plans a bounded batch
	// of bucket migrations (rss.PlanMoves over the interval's per-bucket
	// packet deltas, hottest chains relieved first) and applies it
	// through Pipeline.ReSteer — far cheaper than a replan (no
	// recalibration, no graph rebuild, per-flow state untouched) and
	// ordering-safe, because the rewrite lands under the reload drain
	// barrier. The controller escalates to the configured replan action
	// only when re-steering cannot fix the skew: no improving moves
	// exist for the observed distribution, or imbalance persists
	// ReSteerPersist further intervals after a re-steer. Default off.
	ReSteer bool
	// ReSteerMax caps buckets migrated per controller re-steer
	// (default 8).
	ReSteerMax int
	// ReSteerPersist is how many consecutive still-skewed intervals
	// after a re-steer escalate to the replan action (default 2).
	ReSteerPersist int
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.HighWater <= 0 {
		c.HighWater = 1.5
	}
	if c.LowWater <= 0 {
		c.LowWater = 1.1
	}
	if c.MinPackets == 0 {
		c.MinPackets = 256
	}
	if c.RejectedStep == 0 {
		c.RejectedStep = 4096
	}
	if c.ReSteerMax <= 0 {
		c.ReSteerMax = 8
	}
	if c.ReSteerPersist <= 0 {
		c.ReSteerPersist = 2
	}
	// An inverted band (LowWater above HighWater — e.g. a user-set
	// HighWater under the LowWater default) would re-arm at levels that
	// immediately re-trip, replanning every other interval; clamp so
	// the hysteresis contract holds for any configuration.
	if c.LowWater > c.HighWater {
		c.LowWater = c.HighWater
	}
	return c
}

// ControllerState is the controller's observable state, shaped for the
// stats JSON (rbrouter -stats-addr serves it next to each node's
// Snapshot).
type ControllerState struct {
	// Armed reports whether the next threshold breach will replan; the
	// controller disarms when it fires and re-arms below LowWater.
	Armed bool `json:"armed"`
	// Observations counts non-idle intervals examined.
	Observations uint64 `json:"observations"`
	// Replans counts automatic Replan calls that succeeded.
	Replans uint64 `json:"replans"`
	// LastImbalance is the most recent interval's max/mean per-core
	// packet ratio.
	LastImbalance float64 `json:"last_imbalance"`
	// LastReason records why the controller last fired.
	LastReason string `json:"last_reason,omitempty"`
	// LastError records the most recent Replan failure, if any.
	LastError string `json:"last_error,omitempty"`
	// ReSteers counts controller-driven steering-table rewrites, and
	// MovedBuckets the buckets those rewrites migrated (see
	// ControllerConfig.ReSteer).
	ReSteers     uint64 `json:"re_steers,omitempty"`
	MovedBuckets uint64 `json:"moved_buckets,omitempty"`
}

// Controller is the adaptive half of the Replan story: it samples the
// pipeline's Snapshot on an interval, reduces each interval to the
// imbalance ratio and the ring-rejection growth, and calls
// Replan(Placement: Auto) when the observed skew crosses the
// high-water mark — once, thanks to hysteresis: it will not fire again
// until the load has settled below the low-water mark. Build one with
// Pipeline.NewController; Start launches the watching goroutine,
// Observe is the deterministic single-step used by tests and Step-mode
// hosts.
type Controller struct {
	pipe *Pipeline
	cfg  ControllerConfig

	// obsMu serializes Observe (which may run a whole Replan); mu
	// guards the readable state and is only ever held briefly, so
	// State() — and anything polling it, like rbrouter's /stats — never
	// blocks behind a swap in progress.
	obsMu sync.Mutex
	mu    sync.Mutex
	state ControllerState
	prev  Snapshot
	ready bool // prev holds a baseline for the current generation
	// steered marks that the last corrective action was a re-steer;
	// steerPersist counts consecutive still-skewed intervals since it,
	// for the escalation to a full replan. Both reset when the load
	// settles (re-arm) or a replan installs a fresh plan.
	steered      bool
	steerPersist int

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewController builds a replan controller over the pipeline. It takes
// a baseline snapshot immediately; call Start to watch on an interval,
// or Observe from your own loop.
func (p *Pipeline) NewController(cfg ControllerConfig) *Controller {
	c := &Controller{
		pipe: p,
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.state.Armed = true
	c.prev = p.Snapshot()
	c.ready = true
	return c
}

// Start launches the controller goroutine (at most once). Stop it
// before stopping the pipeline for good (a replan against a stopped
// pipeline is legal but pointless).
func (c *Controller) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(c.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.Observe()
			}
		}
	}()
}

// Stop halts the controller goroutine and waits for it (idempotent; a
// controller that was never started just marks itself stopped).
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.started.Load() {
		<-c.done
	}
}

// State returns a copy of the controller's observable state.
func (c *Controller) State() ControllerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Observe takes one controller step: snapshot, delta against the
// previous observation, threshold-and-hysteresis decision, and — when
// tripped while armed — an automatic Replan(Placement: Auto). It
// reports whether a replan fired. Safe from any goroutine; the ticking
// goroutine calls it on its interval.
func (c *Controller) Observe() bool {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	snap := c.pipe.Snapshot()

	c.mu.Lock()
	prev, hadPrev := c.prev, c.ready
	c.prev, c.ready = snap, true
	if !hadPrev || prev.Generation != snap.Generation || prev.Plan != snap.Plan {
		// First sample of a generation: establish the baseline only.
		c.mu.Unlock()
		return false
	}
	d := snap.Delta(prev)
	if d.TotalPackets() < c.cfg.MinPackets {
		// Idle interval: no evidence either way.
		c.mu.Unlock()
		return false
	}
	c.state.Observations++
	c.state.LastImbalance = d.Imbalance

	rejectedTrip := c.cfg.RejectedStep > 0 && d.Rejected >= uint64(c.cfg.RejectedStep)
	trip := false
	switch {
	case !c.state.Armed:
		// Disarmed: re-arm only once the load has settled well below the
		// trip point (and backpressure has stopped growing).
		if d.Imbalance < c.cfg.LowWater && !rejectedTrip {
			c.state.Armed = true
			// A settled load closes the re-steer episode: the next trip
			// starts a fresh ladder from the cheap action.
			c.steered = false
			c.steerPersist = 0
		}
	case d.Imbalance >= c.cfg.HighWater || rejectedTrip:
		reason := fmt.Sprintf("imbalance %.2f >= %.2f", d.Imbalance, c.cfg.HighWater)
		if rejectedTrip {
			reason = fmt.Sprintf("ring rejections +%d >= %d", d.Rejected, c.cfg.RejectedStep)
		}
		c.state.Armed = false
		c.state.LastReason = reason
		trip = true
	}
	// Re-steering first: a trip with the flow steerer enabled is handled
	// by migrating the interval's hottest buckets off the hottest chains
	// — when the observed distribution admits improving moves at all.
	// An empty plan (one chain, one unsplittable hot bucket, balanced
	// buckets despite a rejection trip) falls through to the replan.
	var moves []Move
	if trip && c.cfg.ReSteer && d.RSS != nil {
		moves = rss.PlanMoves(d.RSS.Assignments, d.RSS.Counts, d.RSS.Chains, c.cfg.ReSteerMax)
	}
	// Re-steer escalation: the table was rewritten but the skew is still
	// here (a flow distribution no bucket migration can flatten —
	// PlanMoves already did what it could). The controller sits
	// disarmed, so after ReSteerPersist such intervals it escalates to
	// the replan action.
	if c.cfg.ReSteer && !trip && !c.state.Armed && c.steered {
		if d.Imbalance >= c.cfg.HighWater {
			if c.steerPersist++; c.steerPersist >= c.cfg.ReSteerPersist {
				trip = true
				c.steerPersist = 0
				c.steered = false
				c.state.LastReason = fmt.Sprintf(
					"re-steer escalation: imbalance %.2f persisted across re-steer", d.Imbalance)
			}
		} else {
			c.steerPersist = 0
		}
	}
	c.mu.Unlock()
	if len(moves) > 0 {
		// The trip is handled by a re-steer: the table rewrite runs
		// outside c.mu for the same reason the replan does (it holds the
		// pipeline through a drain barrier).
		err := c.pipe.ReSteer(moves)
		c.mu.Lock()
		defer c.mu.Unlock()
		if err != nil {
			// Same non-latching contract as a failed replan: re-arm so the
			// next tripping interval retries.
			c.state.LastError = err.Error()
			c.state.Armed = true
			return false
		}
		c.state.LastError = ""
		c.state.ReSteers++
		c.state.MovedBuckets += uint64(len(moves))
		c.state.LastReason += fmt.Sprintf(" → re-steered %d buckets", len(moves))
		c.steered = true
		c.steerPersist = 0
		// The drain retired in-flight packets; rebase so the next interval
		// measures the rewritten assignment, not the skew that caused it.
		c.prev = c.pipe.Snapshot()
		return true
	}
	if !trip {
		return false
	}

	// The replan runs outside c.mu — it calibrates both candidates and
	// holds the pipeline through a drain barrier, and State() must stay
	// readable throughout. obsMu keeps concurrent Observes out.
	err := c.replan()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		// A failed corrective action must not latch the controller off:
		// the skew it fired on persists (nothing was corrected), so
		// staying disarmed would wait for a settling that cannot come.
		// Re-arm to retry on the next tripping interval; the error stays
		// visible in State until a replan succeeds.
		c.state.LastError = err.Error()
		c.state.Armed = true
		return false
	}
	c.state.LastError = ""
	c.state.Replans++
	c.steered = false
	c.steerPersist = 0
	// The swap reset the pipeline's counters; rebase the next delta.
	c.prev = c.pipe.Snapshot()
	return true
}

// replan performs the controller's corrective action: Replan with the
// configured Replan hook when one is set, the library's calibrated
// Replan(Placement: Auto) otherwise.
func (c *Controller) replan() error {
	if c.cfg.Replan != nil {
		return c.cfg.Replan()
	}
	return c.pipe.Replan(Options{Placement: Auto})
}

// maxDrainRounds bounds the reload drain barrier: a healthy graph
// drains its rings in a handful of synchronous rounds; a graph that
// stops making progress (a terminal wedged on an external resource)
// gets its leftovers recycled and accounted as drain drops instead of
// stalling the control plane forever.
const maxDrainRounds = 4096

// Reload hot-swaps the pipeline's program: the new Click text is
// parsed, planned (resolving Placement: Auto if asked), and fully
// materialized off to the side — the old plan keeps forwarding
// throughout and survives untouched if the new one fails to build.
// Then a drain barrier runs: new Push calls are blocked, the old
// plan's cores are stopped, in-flight packets are stepped out of the
// rings synchronously (or, past a bounded number of rounds, recycled
// and accounted in Snapshot().Drops), the new plan is installed, and —
// when the pipeline was started — its cores launch. Works in both
// Start and Step modes.
//
// Zero fields of opts inherit the current plan's values (see merge);
// Prebound in particular carries over, so prebound resources — FIBs,
// device rings, balancers — rebind to the new graph's chains through
// the same closure.
func (p *Pipeline) Reload(clickText string, opts Options) error {
	return p.reload(clickText, opts, false)
}

// Replan re-decides the placement of the current program and swaps to
// the result under the same drain barrier as Reload — the adaptive
// half of the control plane. Callers typically watch Snapshot deltas
// (per-core load, ring backpressure) to decide when to call it, and
// pass Placement: Auto to let the calibration re-pick, or an explicit
// kind to force one.
func (p *Pipeline) Replan(opts Options) error {
	return p.reload("", opts, true)
}

func (p *Pipeline) reload(text string, opts Options, useCurrent bool) error {
	if err := opts.validate(); err != nil {
		return err
	}
	p.pmu.RLock()
	if useCurrent {
		text = p.text
	}
	cur := p.opts
	p.pmu.RUnlock()
	opts = merge(cur, opts)

	// Build the replacement completely off to the side; any error here
	// leaves the running plan untouched.
	newPlan, decided, decision, calib, err := buildPlan(text, opts)
	if err != nil {
		return err
	}

	// Drain barrier: producers blocked (Push waits on pmu), cores
	// stopped, rings stepped dry, then the atomic install.
	p.pmu.Lock()
	defer p.pmu.Unlock()
	wasRunning := p.running
	if wasRunning {
		p.plan.Stop()
		p.running = false
	}
	p.drainLocked()
	p.plan = newPlan
	p.text = text
	p.opts = decided
	p.decision = decision
	p.calib = calib
	p.generation++
	p.ctx = click.Context{}
	// The steering table outlives the swap (like the FIB), but its
	// chain indexes must match the new plan's width: restripe only when
	// the width changed, so re-steers survive same-width swaps. Still
	// inside the exclusive section, so PushFlow never sees a stale
	// width.
	if p.rssTable != nil && p.rssTable.Chains() != newPlan.Chains() {
		if err := p.rssTable.Restripe(newPlan.Chains()); err != nil {
			return err
		}
	}
	if wasRunning {
		if err := p.plan.Start(); err != nil {
			return err
		}
		p.running = true
	}
	return nil
}

// drainLocked empties the stopped plan's rings by stepping every core
// synchronously until a full round moves nothing and the rings are
// empty. If the graph stops making progress while packets remain, the
// leftovers are popped, recycled, and counted as drain drops. Caller
// holds pmu exclusively and has stopped the runner.
func (p *Pipeline) drainLocked() {
	var ctx click.Context
	for round := 0; round < maxDrainRounds; round++ {
		moved := 0
		for core := 0; core < p.plan.Cores(); core++ {
			moved += p.plan.RunStep(core, &ctx)
			ctx.TakeCycles()
		}
		if moved == 0 {
			if p.plan.Queued() == 0 {
				return
			}
			break // wedged: no progress with packets still queued
		}
	}
	for _, pr := range p.plan.Rings() {
		pr.Ring.Drain(func(pk *pkt.Packet) {
			p.drainDrops.Add(1)
			pkt.DefaultPool.Put(pk)
		})
	}
}
