package routebricks

import "routebricks/internal/rss"

// This file is the flow-affinity half of the data-plane surface: Push
// scatters by whatever chain index the caller computed, PushFlow
// scatters by the packet's flow hash through the static RSS table
// (rss.Chain), so both directions of a 5-tuple — and every fragment of
// a datagram — land on the same chain. That affinity is what makes
// cloning per-flow elements (Reassembler, FlowCounter) across chains
// correct; the planner's cloning gate (click.PlanConfig.FlowSteered)
// assumes it.

// PushFlow feeds one packet to the chain its flow steers to: the
// packet's cached symmetric flow hash (pkt.RSSHash — direction- and
// fragment-insensitive) picks the chain through rss.Chain over the
// current plan's width. Same non-blocking contract as Push: false means
// ring full or a swap in progress, and the caller keeps ownership. Each
// chain's input ring is single-producer, so all PushFlow traffic must
// come from one goroutine (steering concentrates every producer onto
// the same rings).
func (p *Pipeline) PushFlow(pk *Packet) bool {
	if !p.pmu.TryRLock() {
		return false // reload in progress: the drain barrier owns the plan
	}
	defer p.pmu.RUnlock()
	// The width is read from the plan under the shared lock, so a
	// Reload that changes the chain count re-steers every flow at the
	// swap and never mid-plan.
	return p.plan.Input(rss.Chain(pk.RSSHash(), p.plan.Chains())).Push(pk)
}
