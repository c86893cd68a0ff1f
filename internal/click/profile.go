package click

import (
	"fmt"
	"sort"
	"strings"

	"routebricks/internal/pkt"
)

// Profiler attributes virtual CPU cycles and packet counts to elements —
// the analog of the paper's VTune-like instrumentation (§4.1), but for
// the calibrated cycle charges flowing through a Context. Attribution is
// wired at connection level: Router.Instrument wraps every connection so
// each element's Push is bracketed and its Charge delta recorded.
//
// A Profiler belongs to one single-threaded dispatch domain (one virtual
// core, or one test); it is not safe for concurrent use.
type Profiler struct {
	stats map[string]*ElementStats
}

// ElementStats accumulates one element's costs.
type ElementStats struct {
	Name    string
	Cycles  float64
	Packets uint64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{stats: make(map[string]*ElementStats)}
}

// Account records cycles and a packet against an element name.
func (p *Profiler) Account(name string, cycles float64, packets uint64) {
	s := p.stats[name]
	if s == nil {
		s = &ElementStats{Name: name}
		p.stats[name] = s
	}
	s.Cycles += cycles
	s.Packets += packets
}

// Stats returns per-element totals sorted by descending cycles.
func (p *Profiler) Stats() []ElementStats {
	out := make([]ElementStats, 0, len(p.stats))
	for _, s := range p.stats {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TotalCycles sums all attributed cycles.
func (p *Profiler) TotalCycles() float64 {
	t := 0.0
	for _, s := range p.stats {
		t += s.Cycles
	}
	return t
}

// String renders a per-element cost table, heaviest first.
func (p *Profiler) String() string {
	var b strings.Builder
	total := p.TotalCycles()
	fmt.Fprintf(&b, "%-20s %12s %10s %7s %s\n", "element", "cycles", "packets", "cyc/pkt", "share")
	for _, s := range p.Stats() {
		per := 0.0
		if s.Packets > 0 {
			per = s.Cycles / float64(s.Packets)
		}
		share := 0.0
		if total > 0 {
			share = 100 * s.Cycles / total
		}
		fmt.Fprintf(&b, "%-20s %12.0f %10d %7.0f %4.1f%%\n", s.Name, s.Cycles, s.Packets, per, share)
	}
	return b.String()
}

// Instrument rewires every existing connection of the router so that the
// downstream element's own work (cycles it charges while handling a
// batch, excluding what elements it pushes to charge in turn) is
// attributed to its name, and every packet in the batch counts toward
// it. Call after all Connects; connections made afterwards are not
// instrumented.
func (r *Router) Instrument(p *Profiler) {
	for _, c := range r.conns {
		name, inner := c.to, BatchDispatch(r.elements[c.to], c.toPort)
		r.elements[c.from].(BatchOutputSetter).SetBatchOutput(c.fromPort, func(ctx *Context, b *pkt.Batch) {
			n := uint64(b.Len())
			i := ctx.pushFrame()
			inner(ctx, b)
			p.Account(name, ctx.popFrame(i), n)
		})
	}
}
