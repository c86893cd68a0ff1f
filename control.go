package routebricks

import (
	"routebricks/internal/click"
	"routebricks/internal/pkt"
)

// This file is the hot-swap half of the control plane: Reload builds a
// replacement plan off to the side and installs it under a drain
// barrier (§5's operators re-tune as traffic shifts; rbrouter wires
// Reload to SIGHUP). Swapping to another placement of the same program
// is Reload(p.Program(), opts).

// maxDrainRounds bounds the reload drain barrier: a healthy graph
// drains its rings in a handful of synchronous rounds; a graph that
// stops making progress (a terminal wedged on an external resource)
// gets its leftovers recycled and accounted as drain drops instead of
// stalling the control plane forever.
const maxDrainRounds = 4096

// Reload hot-swaps the pipeline's program: the new Click text is
// parsed, planned (resolving Placement: Auto by its rule), and fully
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
	if err := opts.validate(); err != nil {
		return err
	}
	p.pmu.RLock()
	cur := p.opts
	p.pmu.RUnlock()
	opts = merge(cur, opts)

	// Build the replacement completely off to the side; any error here
	// leaves the running plan untouched.
	newPlan, err := buildPlan(clickText, opts)
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
	p.text = clickText
	p.opts = opts
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
