// Package vlb implements the distributed switching layer of RouteBricks:
// Valiant load balancing over a full mesh, the "Direct VLB" optimization
// (Zhang-Shen & McKeown) that routes up to R/N of each input's traffic
// straight to its output node, and the Flare-style flowlet mechanism RB4
// uses to avoid reordering (§3.2, §6.1 of the paper).
//
// The Balancer runs at a packet's input node and answers one question:
// which cluster node should this packet go to next? Three answer sources,
// in priority order:
//
//  1. Direct quota: traffic to output node D is sent directly to D at up
//     to R/N (token bucket per destination) — phase 1 skipped entirely.
//  2. Flowlet stickiness: packets of the same flow arriving within δ of
//     each other reuse the previous intermediate, provided that link is
//     not overloaded — this keeps same-flow packets on one path, which
//     is what prevents reordering.
//  3. Classic VLB: pick a uniformly random intermediate node.
package vlb

import (
	"fmt"
	"math/rand"

	"routebricks/internal/pkt"
	"routebricks/internal/sim"
)

// Config parameterizes a Balancer.
type Config struct {
	Nodes int // cluster size N
	Self  int // this node's index

	// LineRateBps is the external port rate R; the direct quota is R/N
	// per destination (Direct VLB).
	LineRateBps float64

	// LinkCapBps is the capacity of one internal mesh link. A flowlet
	// only sticks to its path while the path's estimated utilization
	// stays under UtilCap.
	LinkCapBps float64

	// Delta is the flowlet timeout: same-flow packets spaced less than
	// Delta apart are kept on one path (§6.1: δ = 100 ms works well).
	Delta sim.Time

	// Flowlets enables reordering avoidance; with it off the balancer is
	// plain Direct VLB, the configuration whose measured reordering the
	// paper reports as 5.5%.
	Flowlets bool

	// UtilCap is the utilization threshold above which a flowlet no
	// longer "fits" its path (default 0.95).
	UtilCap float64

	// Seed makes intermediate selection deterministic.
	Seed int64
}

// DefaultDelta is the paper's flowlet timeout.
const DefaultDelta = 100 * sim.Millisecond

// Decision reports where a packet goes next.
type Decision struct {
	Next   int  // next cluster node
	Direct bool // true when Next is the packet's output node
}

// Balancer makes VLB routing decisions for one input node. Not safe for
// concurrent use: it has one owner at a time — in the cluster simulation
// the node's event stream, in an rbrouter member the goroutine running
// the balancer's chain — and membership changes reach it through that
// owner's calls to Restripe.
type Balancer struct {
	cfg Config
	rng *rand.Rand

	direct   []tokenBucket // per-destination direct quota
	linkUtil []ewmaRate    // per-next-node utilization estimate
	flows    map[uint64]*flowlet
	swept    sim.Time // when Route last expired stale flowlets
	down     []bool   // members the last Restripe excluded

	liveCount  int    // members currently striped over (Nodes minus down)
	nRestripes uint64 // Restripe calls that changed the live view

	// counters
	nDirect, nSticky, nSpread, nNewFlowlet, nOverflow uint64
}

type flowlet struct {
	via  int
	last sim.Time
}

// New builds a balancer. It panics on nonsensical configuration, since a
// malformed balancer silently corrupts throughput accounting.
func New(cfg Config) *Balancer {
	if cfg.Nodes < 2 {
		panic(fmt.Sprintf("vlb: need ≥2 nodes, got %d", cfg.Nodes))
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Nodes {
		panic(fmt.Sprintf("vlb: self %d out of range", cfg.Self))
	}
	if cfg.UtilCap == 0 {
		cfg.UtilCap = 0.95
	}
	if cfg.Delta == 0 {
		cfg.Delta = DefaultDelta
	}
	if cfg.LinkCapBps == 0 && cfg.Nodes > 0 {
		// Full-mesh Direct VLB internal link provisioning: 2R/N (§3.2).
		cfg.LinkCapBps = 2 * cfg.LineRateBps / float64(cfg.Nodes)
	}
	b := &Balancer{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.Self)<<32)),
		flows: make(map[uint64]*flowlet),
		down:  make([]bool, cfg.Nodes),
	}
	// Per-destination direct quota R/N (bytes/sec) with a two-frame burst:
	// the quota is a rate bound, not a credit store, so the bucket stays
	// shallow.
	quota := cfg.LineRateBps / float64(cfg.Nodes) / 8
	for i := 0; i < cfg.Nodes; i++ {
		b.direct = append(b.direct, newTokenBucket(quota, 2*pkt.MaxSize))
		b.linkUtil = append(b.linkUtil, newEwmaRate(10*sim.Millisecond))
	}
	b.liveCount = cfg.Nodes
	return b
}

// Restripe installs a new live-member view and recomputes the VLB spread
// matrix against it: dead members are excluded as destinations'
// intermediates and flowlet paths, the per-destination direct quota is
// re-divided as R/N_live (a dead member's share of the direct budget is
// redistributed over the survivors), and flowlets pinned to a dead via
// are evicted so their next packet re-pins to a live path instead of
// silently dying in a black hole. live must have len Nodes; self is
// always treated as live. Like Route, Restripe is called by the
// balancer's owner: between batches, never concurrently with Route.
func (b *Balancer) Restripe(live []bool) {
	if len(live) != b.cfg.Nodes {
		panic(fmt.Sprintf("vlb: restripe with %d members, balancer has %d", len(live), b.cfg.Nodes))
	}
	n := 0
	changed := false
	for i := range live {
		isLive := live[i] || i == b.cfg.Self
		if isLive {
			n++
		}
		if b.down[i] == isLive { // down is the inverse of live
			b.down[i] = !isLive
			changed = true
		}
	}
	if n < 1 {
		n = 1
	}
	if !changed && n == b.liveCount {
		return
	}
	b.liveCount = n
	b.nRestripes++
	// Re-divide the direct budget over the survivors. Buckets keep their
	// current fill (a rate bound, not a credit store, so no burst is
	// manufactured by the change).
	quota := b.cfg.LineRateBps / float64(n) / 8
	for i := range b.direct {
		b.direct[i].setRate(quota)
	}
	// Evict flowlets whose pinned path is gone; survivors keep their
	// paths, so re-striping does not reorder flows that never touched
	// the dead member.
	for k, fl := range b.flows {
		if b.down[fl.via] {
			delete(b.flows, k)
		}
	}
}

// LiveCount reports how many members the balancer currently stripes
// over (including self).
func (b *Balancer) LiveCount() int { return b.liveCount }

// Restripes reports how many Restripe calls changed the live view.
func (b *Balancer) Restripes() uint64 { return b.nRestripes }

// Route decides the next node for packet p, which entered the cluster at
// this node and must exit at node dst. now is the virtual time.
func (b *Balancer) Route(now sim.Time, p *pkt.Packet, dst int) Decision {
	if dst == b.cfg.Self {
		// Local delivery: no switching decision to make.
		return Decision{Next: dst, Direct: true}
	}
	bytes := float64(p.Len())

	// 1. Flowlet stickiness: an active flowlet keeps its path — direct or
	// via an intermediate — while the path fits and its next node is up.
	// Reordering comes from a flow changing paths, so this check precedes
	// the direct quota.
	if b.cfg.Flowlets {
		if now-b.swept >= b.cfg.Delta {
			b.expire(now)
		}
		key := p.FlowHash()
		if fl, ok := b.flows[key]; ok && now-fl.last < b.cfg.Delta {
			if !b.down[fl.via] && b.linkUtil[fl.via].rate(now)*8 < b.cfg.UtilCap*b.cfg.LinkCapBps {
				fl.last = now
				b.nSticky++
				b.linkUtil[fl.via].add(now, bytes)
				return Decision{Next: fl.via, Direct: fl.via == dst}
			}
			// Path overloaded: this flowlet migrates once, to whatever the
			// quota/spread logic below picks, rather than spraying.
			b.nOverflow++
		}
	}

	// 2. Direct VLB quota: up to R/N of the traffic to dst goes straight
	// there, skipping phase 1.
	if b.direct[dst].take(now, bytes) {
		b.nDirect++
		b.linkUtil[dst].add(now, bytes)
		b.pin(now, p, dst)
		return Decision{Next: dst, Direct: true}
	}

	// 3. Classic VLB spread to a random intermediate.
	via := b.pickIntermediate()
	b.nSpread++
	b.linkUtil[via].add(now, bytes)
	b.pin(now, p, via)
	return Decision{Next: via, Direct: via == dst}
}

// pin records the path chosen for a flow so subsequent packets within δ
// stick to it.
func (b *Balancer) pin(now sim.Time, p *pkt.Packet, via int) {
	if !b.cfg.Flowlets {
		return
	}
	b.flows[p.FlowHash()] = &flowlet{via: via, last: now}
	b.nNewFlowlet++
}

// pickIntermediate draws a uniformly random live node other than self.
// The destination is a legal intermediate (phase-1 traffic that happens
// to land on D just exits there), matching classic VLB's uniform spread.
// If every other node is down the self-exclusion is hopeless; the last
// candidate is returned and the packet dies downstream, which the
// cluster accounts as a failure drop.
func (b *Balancer) pickIntermediate() int {
	via := b.cfg.Self
	for attempt := 0; attempt < 4*b.cfg.Nodes; attempt++ {
		v := b.rng.Intn(b.cfg.Nodes - 1)
		if v >= b.cfg.Self {
			v++
		}
		via = v
		if !b.down[v] {
			return v
		}
	}
	return via
}

// Stats reports decision counts: direct-quota hits, flowlet-sticky
// reuses, classic spreads, new flowlets, and overloaded-path migrations.
func (b *Balancer) Stats() (direct, sticky, spread, newFlowlets, overflow uint64) {
	return b.nDirect, b.nSticky, b.nSpread, b.nNewFlowlet, b.nOverflow
}

// FlowTableSize reports the number of tracked flowlets: at most the
// flows Route has seen in the last 2δ, since it sweeps once per δ.
func (b *Balancer) FlowTableSize() int { return len(b.flows) }

// expire drops flowlet entries older than δ, which Route would ignore
// anyway, so the table tracks live flows only.
func (b *Balancer) expire(now sim.Time) {
	b.swept = now
	for k, fl := range b.flows {
		if now-fl.last >= b.cfg.Delta {
			delete(b.flows, k)
		}
	}
}

// tokenBucket meters the Direct-VLB per-destination quota.
type tokenBucket struct {
	rate   float64 // bytes per second
	burst  float64 // bytes
	tokens float64
	last   sim.Time
}

func newTokenBucket(rateBytesPerSec, burst float64) tokenBucket {
	if burst < pkt.MaxSize {
		burst = pkt.MaxSize // always admit at least one full frame
	}
	return tokenBucket{rate: rateBytesPerSec, burst: burst, tokens: burst}
}

// setRate changes the refill rate in place, keeping the current fill —
// the re-striping path re-divides the direct budget without
// manufacturing a burst.
func (t *tokenBucket) setRate(rateBytesPerSec float64) {
	t.rate = rateBytesPerSec
}

func (t *tokenBucket) take(now sim.Time, bytes float64) bool {
	dt := (now - t.last).Seconds()
	if dt > 0 {
		t.tokens += dt * t.rate
		if t.tokens > t.burst {
			t.tokens = t.burst
		}
		t.last = now
	}
	if t.tokens >= bytes {
		t.tokens -= bytes
		return true
	}
	return false
}

// ewmaRate estimates a byte rate with exponential decay, giving the
// "link utilization" signal the flowlet fit test needs.
type ewmaRate struct {
	tau   sim.Time
	value float64 // bytes per second
	last  sim.Time
}

func newEwmaRate(tau sim.Time) ewmaRate { return ewmaRate{tau: tau} }

func (e *ewmaRate) add(now sim.Time, bytes float64) {
	e.decay(now)
	// An impulse of B bytes smeared over tau contributes B/tau rate.
	e.value += bytes / e.tau.Seconds()
}

func (e *ewmaRate) rate(now sim.Time) float64 {
	e.decay(now)
	return e.value
}

func (e *ewmaRate) decay(now sim.Time) {
	if now <= e.last {
		return
	}
	dt := (now - e.last).Seconds()
	e.last = now
	// First-order decay: value *= exp(-dt/tau), approximated stably.
	k := dt / e.tau.Seconds()
	if k > 30 {
		e.value = 0
		return
	}
	// exp(-k) via the stable recurrence (1+k/32)^-32 ≈ exp(-k).
	f := 1 + k/32
	f = f * f * f * f
	f = f * f * f * f
	f = f * f
	e.value /= f
}
