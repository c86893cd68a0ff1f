package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The paper's own example: enter ⟨p1..p5⟩, exit ⟨p1,p4,p2,p3,p5⟩ — one
// reordered sequence (the run p2,p3).
func TestReorderPaperExample(t *testing.T) {
	m := NewReorderMeter()
	for _, seq := range []uint64{1, 4, 2, 3, 5} {
		m.Observe(7, seq)
	}
	if m.ReorderedSequences() != 1 {
		t.Fatalf("sequences = %d, want 1", m.ReorderedSequences())
	}
	if m.LatePackets() != 2 {
		t.Fatalf("late = %d, want 2", m.LatePackets())
	}
	if m.Packets() != 5 || m.Flows() != 1 {
		t.Fatalf("packets/flows = %d/%d", m.Packets(), m.Flows())
	}
	if got := m.Fraction(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("fraction = %g, want 0.2", got)
	}
}

func TestReorderInOrderIsClean(t *testing.T) {
	m := NewReorderMeter()
	for f := uint64(0); f < 10; f++ {
		for s := uint64(0); s < 100; s++ {
			m.Observe(f, s)
		}
	}
	if m.ReorderedSequences() != 0 || m.Fraction() != 0 {
		t.Fatalf("in-order traffic measured as reordered: %v", m)
	}
}

func TestReorderSeparateRuns(t *testing.T) {
	m := NewReorderMeter()
	// Two separate late runs: ⟨1,3,2,4,6,5⟩ → runs (2) and (5).
	for _, seq := range []uint64{1, 3, 2, 4, 6, 5} {
		m.Observe(1, seq)
	}
	if m.ReorderedSequences() != 2 {
		t.Fatalf("sequences = %d, want 2", m.ReorderedSequences())
	}
}

func TestReorderPerFlowIsolation(t *testing.T) {
	m := NewReorderMeter()
	// Interleaved flows, each internally in order.
	m.Observe(1, 1)
	m.Observe(2, 1)
	m.Observe(1, 2)
	m.Observe(2, 2)
	if m.ReorderedSequences() != 0 {
		t.Fatal("cross-flow interleaving counted as reordering")
	}
}

func TestReorderSeqZeroHandled(t *testing.T) {
	m := NewReorderMeter()
	m.Observe(1, 0) // first packet with seq 0 must not count as late
	m.Observe(1, 1)
	if m.ReorderedSequences() != 0 {
		t.Fatal("seq 0 first packet miscounted")
	}
	m.Observe(1, 0) // now it is late
	if m.ReorderedSequences() != 1 {
		t.Fatal("duplicate/late seq 0 not counted")
	}
}

// Property: fraction is 0 iff no late packets; sequences ≤ late packets ≤
// packets.
func TestPropertyReorderBounds(t *testing.T) {
	f := func(seqs []uint16) bool {
		m := NewReorderMeter()
		for _, s := range seqs {
			m.Observe(uint64(s)%3, uint64(s)/3)
		}
		if m.ReorderedSequences() > m.LatePackets() {
			return false
		}
		if m.LatePackets() > m.Packets() {
			return false
		}
		return (m.Fraction() == 0) == (m.ReorderedSequences() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesQuantiles(t *testing.T) {
	var s Series
	vals := rand.New(rand.NewSource(1)).Perm(1000)
	for _, v := range vals {
		s.Add(float64(v))
	}
	if s.Len() != 1000 {
		t.Fatalf("len = %d", s.Len())
	}
	if q := s.Quantile(0.5); q != 499 {
		t.Fatalf("median = %g, want 499", q)
	}
	if q := s.Quantile(1.0); q != 999 {
		t.Fatalf("max = %g", q)
	}
	if q := s.Quantile(0.001); q != 0 {
		t.Fatalf("min-ish = %g", q)
	}
	if m := s.Mean(); math.Abs(m-499.5) > 1e-9 {
		t.Fatalf("mean = %g", m)
	}
}

func TestConversions(t *testing.T) {
	if g := Gbps(1e6, 125); g != 1 {
		t.Fatalf("Gbps = %g", g)
	}
	if m := Mpps(2.5e6); m != 2.5 {
		t.Fatalf("Mpps = %g", m)
	}
}
