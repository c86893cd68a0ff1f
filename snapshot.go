package routebricks

import (
	"fmt"
	"strings"

	"routebricks/internal/pkt"
	"routebricks/internal/stats"
)

// This file is the observability half of the control plane: one typed
// Snapshot of per-core counters, drops, ring state and element
// counters. cmd/rbrouter serves it as JSON on its admin API;
// Snapshot.Delta turns two snapshots into rates.

// Snapshot captures a point-in-time view of the pipeline: plan
// identity (kind, generation, Auto decision), per-core
// counters, per-ring depth/capacity/backpressure, and the atomic
// counters of every graph element that exports any (Count, Packets,
// Bytes). It is safe to call concurrently with the datapath and with
// Reload; counters reset when a swap installs a new generation,
// which Delta detects via the Generation field.
func (p *Pipeline) Snapshot() Snapshot {
	p.pmu.RLock()
	defer p.pmu.RUnlock()
	plan := p.plan
	s := Snapshot{
		Plan:       plan.Kind().String(),
		Generation: p.generation,
		Decision:   plan.Decision(),
		Cores:      plan.Cores(),
		Chains:     plan.Chains(),
		Queued:     plan.Queued(),
		Drops:      plan.Drops() + p.drainDrops.Load(),
		Rejected:   plan.Rejections(),
	}
	if fib := p.opts.FIB; fib != nil {
		s.FIBGeneration = fib.Generation()
		s.FIBRoutes = fib.Len()
	}
	gets, hits, puts, doublePuts := pkt.DefaultPool.Stats()
	s.Pool = stats.PoolSnapshot{
		Shards:     pkt.DefaultPool.Shards(),
		Free:       pkt.DefaultPool.FreeLen(),
		Gets:       gets,
		Hits:       hits,
		Puts:       puts,
		DoublePuts: doublePuts,
	}
	for _, cs := range plan.Stats() {
		s.CoreStats = append(s.CoreStats, stats.CoreSnapshot{
			Core:     cs.Core,
			Chain:    cs.Chain,
			Stages:   cs.Stages,
			Packets:  cs.Packets(),
			Polls:    cs.Polls(),
			Empty:    cs.Empty(),
			Handoffs: cs.Handoffs(),
		})
	}
	s.Imbalance = s.ImbalanceRatio()
	for _, pr := range plan.Rings() {
		s.Rings = append(s.Rings, stats.RingSnapshot{
			Role:     pr.Role,
			Chain:    pr.Chain,
			FromCore: pr.From,
			ToCore:   pr.To,
			Len:      pr.Ring.Len(),
			Cap:      pr.Ring.Cap(),
			Rejected: pr.Ring.Rejected(),
		})
	}
	for chain := 0; chain < plan.Chains(); chain++ {
		r := plan.Router(chain)
		for _, name := range r.Elements() {
			el := r.Get(name)
			counters := elementCounters(el)
			if len(counters) == 0 {
				continue
			}
			s.Elements = append(s.Elements, stats.ElementSnapshot{
				Chain:    chain,
				Name:     name,
				Class:    className(el),
				Counters: counters,
			})
		}
	}
	return s
}

// elementCounters harvests an element's exported counters. Only the
// accessors this codebase implements atomically are probed (Count,
// Packets, Bytes — Sink, Counter, Discard, ...), so harvesting is safe
// while datapath cores are writing.
func elementCounters(e Element) map[string]uint64 {
	var m map[string]uint64
	set := func(k string, v uint64) {
		if m == nil {
			m = make(map[string]uint64, 2)
		}
		m[k] = v
	}
	if c, ok := e.(interface{ Count() uint64 }); ok {
		set("count", c.Count())
	}
	if c, ok := e.(interface{ Packets() uint64 }); ok {
		set("packets", c.Packets())
	}
	if c, ok := e.(interface{ Bytes() uint64 }); ok {
		set("bytes", c.Bytes())
	}
	return m
}

// className renders an element's type the way DOT does: the bare Go
// type name, pointer and package stripped.
func className(e Element) string {
	t := fmt.Sprintf("%T", e)
	return t[strings.LastIndexByte(t, '.')+1:]
}
