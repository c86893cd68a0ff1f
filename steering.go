package routebricks

import (
	"fmt"

	"routebricks/internal/rss"
)

// This file is the flow-affinity half of the data-plane surface: Push
// scatters by whatever chain index the caller computed, PushFlow
// scatters through the pipeline's RSS-style indirection table so both
// directions of a 5-tuple — and every fragment of a datagram — land on
// the same chain. That affinity is what makes cloning per-flow
// elements (Reassembler, FlowCounter) across chains correct; the
// planner's cloning gate (click.PlanConfig.FlowSteered) assumes it.

// Move migrates one steering bucket between chains; see
// Pipeline.ReSteer and rss.PlanMoves.
type Move = rss.Move

// PushFlow feeds one packet to the chain its flow steers to: the
// packet's cached symmetric flow hash (pkt.RSSHash — direction- and
// fragment-insensitive) indexes the indirection table, and the bucket's
// packet counter ticks on success. Same non-blocking contract as Push:
// false means ring full or a swap in progress, and the caller keeps
// ownership. Each chain's input ring is single-producer, so all
// PushFlow traffic must come from one goroutine (the steering table
// concentrates every producer onto the same rings).
func (p *Pipeline) PushFlow(pk *Packet) bool {
	if !p.pmu.TryRLock() {
		return false // reload in progress: the drain barrier owns the plan
	}
	defer p.pmu.RUnlock()
	// The reload path restripes the table inside its exclusive section
	// whenever the chain count changes, so under the shared lock the
	// table's chain indexes are always in range for the current plan.
	bucket, chain := p.rssTable.Steer(pk.RSSHash())
	if !p.plan.Input(chain).Push(pk) {
		return false
	}
	p.rssTable.Tick(bucket)
	return true
}

// RSS exposes the pipeline's flow-steering indirection table for
// advanced callers (tests inspect it). The table is shared with the
// datapath and persists across Reload/Replan; rewrite it through
// ReSteer, not Apply, so moves land under a drain barrier.
func (p *Pipeline) RSS() *rss.Table {
	return p.rssTable
}

// ReSteer migrates steering buckets between chains under the same
// drain barrier as Reload: producers are blocked, cores stopped,
// in-flight packets stepped out of the rings, and only then does the
// table rewrite publish. The drain is what preserves per-flow ordering
// — every packet of a moved flow that entered under the old assignment
// has retired before the first packet steered by the new one is
// accepted — and why a re-steer loses nothing: nothing is in flight
// when the assignment flips. Stale moves (From no longer owning the
// bucket) reject the whole batch, so concurrent steering admins
// cannot half-apply.
func (p *Pipeline) ReSteer(moves []Move) error {
	if len(moves) == 0 {
		return nil
	}
	p.pmu.Lock()
	defer p.pmu.Unlock()
	for _, m := range moves {
		if m.To < 0 || m.To >= p.plan.Chains() {
			return fmt.Errorf("routebricks: re-steer bucket %d to chain %d, but the plan has %d chains", m.Bucket, m.To, p.plan.Chains())
		}
	}
	wasRunning := p.running
	if wasRunning {
		p.plan.Stop()
		p.running = false
	}
	p.drainLocked()
	err := p.rssTable.Apply(moves)
	if wasRunning {
		if serr := p.plan.Start(); serr != nil {
			return serr
		}
		p.running = true
	}
	return err
}
