package elements

import (
	"math/rand"

	"routebricks/internal/click"
	"routebricks/internal/exec"
	"routebricks/internal/pkt"
)

// RED is Random Early Detection (Floyd/Jacobson) guarding a transmit
// ring: it tracks the ring's average occupancy with an EWMA and drops
// incoming packets with probability rising from 0 at MinThresh to MaxP
// at MaxThresh (everything above MaxThresh drops). Click ships the same
// element; routers use it to signal congestion before tail drop.
// Output 0 forwards, output 1 carries early drops.
type RED struct {
	click.Base
	Queue     *exec.Ring
	MinThresh float64
	MaxThresh float64
	MaxP      float64
	// Weight is the EWMA gain (default 0.002, the classic value).
	Weight float64

	rng    *rand.Rand
	avg    float64
	drops  uint64
	passed uint64
}

// NewRED builds the element with the classic parameterization.
func NewRED(q *exec.Ring, minTh, maxTh, maxP float64, seed int64) *RED {
	return &RED{
		Queue: q, MinThresh: minTh, MaxThresh: maxTh, MaxP: maxP,
		Weight: 0.002,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// InPorts reports 1.
func (r *RED) InPorts() int { return 1 }

// OutPorts reports 2 (pass, early drop).
func (r *RED) OutPorts() int { return 2 }

// AvgOccupancy exposes the EWMA estimate.
func (r *RED) AvgOccupancy() float64 { return r.avg }

// Stats reports (passed, earlyDrops).
func (r *RED) Stats() (passed, drops uint64) { return r.passed, r.drops }

// Push applies the RED drop decision, then forwards survivors.
func (r *RED) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	r.avg += r.Weight * (float64(r.Queue.Len()) - r.avg)
	drop := false
	switch {
	case r.avg >= r.MaxThresh:
		drop = true
	case r.avg > r.MinThresh:
		prob := r.MaxP * (r.avg - r.MinThresh) / (r.MaxThresh - r.MinThresh)
		drop = r.rng.Float64() < prob
	}
	if drop {
		r.drops++
		r.Out(ctx, 1, p)
		return
	}
	r.passed++
	r.Out(ctx, 0, p)
}

// Shaper rate-limits a stream with a token bucket (Click's Shaper):
// conforming packets exit output 0, excess exits output 1 (policing) —
// wire output 1 back into a queue for true shaping.
type Shaper struct {
	click.Base
	RateBps float64
	BurstB  float64

	tokens float64
	lastNs int64
	passed uint64
	excess uint64
}

// NewShaper builds a policer at rate bits/sec with the given burst bytes.
func NewShaper(rateBps, burstBytes float64) *Shaper {
	return &Shaper{RateBps: rateBps, BurstB: burstBytes, tokens: burstBytes}
}

// InPorts reports 1.
func (s *Shaper) InPorts() int { return 1 }

// OutPorts reports 2 (conforming, excess).
func (s *Shaper) OutPorts() int { return 2 }

// Stats reports (conforming, excess).
func (s *Shaper) Stats() (passed, excess uint64) { return s.passed, s.excess }

// Push meters.
func (s *Shaper) Push(ctx *click.Context, _ int, p *pkt.Packet) {
	now := ctx.Now()
	if now > s.lastNs {
		s.tokens += s.RateBps / 8 * float64(now-s.lastNs) / 1e9
		if s.tokens > s.BurstB {
			s.tokens = s.BurstB
		}
		s.lastNs = now
	}
	need := float64(p.Len())
	if s.tokens >= need {
		s.tokens -= need
		s.passed++
		s.Out(ctx, 0, p)
		return
	}
	s.excess++
	s.Out(ctx, 1, p)
}
