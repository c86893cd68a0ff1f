// Package stats provides the measurement instruments of the evaluation:
// the reordered-sequence metric of §6.2, sample series with exact
// quantiles, and rate accounting helpers shared by the experiment
// harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// ReorderMeter implements the paper's reordering metric (§6.2): per
// TCP/UDP flow, packets enter the cluster in sequence; on exit, a
// maximal run of packets that arrive with sequence numbers below the
// highest already seen counts as one reordered sequence. For the paper's
// example — enter ⟨p1..p5⟩, exit ⟨p1,p4,p2,p3,p5⟩ — the run ⟨p2,p3⟩ is
// one reordered sequence.
//
// The reported fraction is reordered sequences / total packets observed,
// the normalization that makes "0.15% reordering" a per-traffic (not
// per-flow) statement.
type ReorderMeter struct {
	flows map[uint64]*flowOrder

	packets   uint64
	sequences uint64 // reordered runs
	latePkts  uint64
}

type flowOrder struct {
	maxSeq    uint64
	seen      bool
	inLateRun bool
}

// NewReorderMeter returns an empty meter.
func NewReorderMeter() *ReorderMeter {
	return &ReorderMeter{flows: make(map[uint64]*flowOrder)}
}

// Observe records a packet of the given flow exiting the cluster with
// its ingress-assigned sequence number.
func (m *ReorderMeter) Observe(flow uint64, seq uint64) {
	m.packets++
	f := m.flows[flow]
	if f == nil {
		f = &flowOrder{}
		m.flows[flow] = f
	}
	if !f.seen || seq > f.maxSeq {
		f.maxSeq = seq
		f.seen = true
		f.inLateRun = false
		return
	}
	// Late packet: part of a reordered run.
	m.latePkts++
	if !f.inLateRun {
		m.sequences++
		f.inLateRun = true
	}
}

// Packets reports total packets observed.
func (m *ReorderMeter) Packets() uint64 { return m.packets }

// ReorderedSequences reports the count of reordered runs.
func (m *ReorderMeter) ReorderedSequences() uint64 { return m.sequences }

// LatePackets reports packets that arrived after a higher sequence
// number of their flow.
func (m *ReorderMeter) LatePackets() uint64 { return m.latePkts }

// Flows reports the number of distinct flows observed.
func (m *ReorderMeter) Flows() int { return len(m.flows) }

// Fraction reports reordered sequences over total packets.
func (m *ReorderMeter) Fraction() float64 {
	if m.packets == 0 {
		return 0
	}
	return float64(m.sequences) / float64(m.packets)
}

// String renders the meter like the paper quotes it.
func (m *ReorderMeter) String() string {
	return fmt.Sprintf("%.3f%% reordered sequences (%d runs / %d pkts, %d flows)",
		100*m.Fraction(), m.sequences, m.packets, len(m.flows))
}

// Series is a growing sample list with exact quantiles, for smaller
// sample sets where memory doesn't matter.
type Series struct {
	vals   []float64
	sorted bool
}

// Add appends a sample.
func (s *Series) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// Len reports the sample count.
func (s *Series) Len() int { return len(s.vals) }

// Mean reports the sample mean.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Quantile returns the exact p-quantile (nearest-rank).
func (s *Series) Quantile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	idx := int(math.Ceil(p*float64(len(s.vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.vals) {
		idx = len(s.vals) - 1
	}
	return s.vals[idx]
}

// Gbps converts packets/sec at a byte size to Gbps.
func Gbps(pps float64, bytes float64) float64 { return pps * bytes * 8 / 1e9 }

// Mpps converts packets/sec to Mpps.
func Mpps(pps float64) float64 { return pps / 1e6 }
