package routebricks

import (
	"fmt"

	"routebricks/internal/click"
	"routebricks/internal/pkt"
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
// charged virtual cycles plus Options.HandoffCycles for every observed
// handoff-ring crossing, amortized per chain. Lower score wins.
type CalibrationResult struct {
	Plan             string  `json:"plan"`
	Packets          int     `json:"packets"`
	Rounds           int     `json:"rounds"`
	BottleneckCycles float64 `json:"bottleneck_cycles"`
	HandoffPackets   uint64  `json:"handoff_packets"`
	Score            float64 `json:"score"`

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
		"auto: calibrated %d packets at %d cores — parallel score %.0f vs pipelined %.0f (bottleneck cycles + %.0f cycles/handoff) → %s",
		calibPackets, opts.Cores, results[0].Score, results[1].Score, opts.HandoffCycles, best)
	return best, decision, results, nil
}

// measure builds one candidate plan, feeds it the calibration stream,
// and steps every core round-robin until the plan drains. The score
// models steady-state throughput: the busiest core's charged cycles
// (elements charge their calibrated per-packet costs to the Context)
// plus HandoffCycles for every observed handoff-ring crossing,
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
	// Every core polls exactly one upstream ring, so a handoff ring's
	// crossing count is its consumer core's pulled-packet counter
	// (Stats is indexed by core).
	var crossings uint64
	for _, pr := range plan.Rings() {
		if pr.Role == "handoff" {
			crossings += plan.Stats()[pr.To].Packets()
		}
	}
	bottleneck := 0.0
	for _, c := range perCore {
		if c > bottleneck {
			bottleneck = c
		}
	}
	return CalibrationResult{
		Plan:             kind.String(),
		Packets:          fed,
		Rounds:           rounds,
		BottleneckCycles: bottleneck,
		HandoffPackets:   crossings,
		Score:            bottleneck + opts.HandoffCycles*float64(crossings)/float64(plan.Chains()),
		kind:             kind,
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
	p.ctx = click.Context{NowNS: click.WallNS}
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
