package stats

import "testing"

func sampleSnapshot(gen uint64, pkts, rej uint64) Snapshot {
	return Snapshot{
		Plan:       "pipelined",
		Generation: gen,
		Cores:      2,
		Chains:     1,
		Queued:     3,
		Drops:      pkts / 100,
		Rejected:   rej,
		CoreStats: []CoreSnapshot{
			{Core: 0, Chain: 0, Stages: "check+rt", Packets: pkts, Polls: pkts + 5, Empty: 5, Handoffs: pkts / 32},
			{Core: 1, Chain: 0, Stages: "ttl", Packets: pkts, Polls: pkts + 9, Empty: 9},
		},
		Rings: []RingSnapshot{
			{Role: "input", Chain: 0, Len: 2, Cap: 4096, Rejected: rej},
			{Role: "handoff", Chain: 0, Len: 1, Cap: 1024, Rejected: 0},
		},
		Elements: []ElementSnapshot{
			{Chain: 0, Name: "good", Class: "Counter", Counters: map[string]uint64{"packets": pkts, "bytes": pkts * 64}},
		},
	}
}

func TestSnapshotDelta(t *testing.T) {
	prev := sampleSnapshot(4, 1000, 10)
	cur := sampleSnapshot(4, 1600, 25)
	d := cur.Delta(prev)

	if d.Queued != cur.Queued {
		t.Errorf("Queued is a gauge, got %d", d.Queued)
	}
	if d.Rejected != 15 {
		t.Errorf("Rejected delta = %d, want 15", d.Rejected)
	}
	if d.CoreStats[0].Packets != 600 || d.CoreStats[1].Packets != 600 {
		t.Errorf("core packet deltas wrong: %+v", d.CoreStats)
	}
	if d.CoreStats[0].Handoffs != 1600/32-1000/32 {
		t.Errorf("handoff delta = %d", d.CoreStats[0].Handoffs)
	}
	if d.Rings[0].Rejected != 15 || d.Rings[0].Len != 2 || d.Rings[0].Cap != 4096 {
		t.Errorf("ring delta wrong: %+v", d.Rings[0])
	}
	if d.Elements[0].Counters["packets"] != 600 || d.Elements[0].Counters["bytes"] != 600*64 {
		t.Errorf("element counter delta wrong: %v", d.Elements[0].Counters)
	}
	if d.TotalPackets() != 1200 {
		t.Errorf("TotalPackets = %d, want 1200", d.TotalPackets())
	}

	// The inputs are untouched.
	if cur.Elements[0].Counters["packets"] != 1600 || prev.Elements[0].Counters["packets"] != 1000 {
		t.Error("Delta mutated its inputs")
	}
}

func TestSnapshotDeltaWire(t *testing.T) {
	prev := sampleSnapshot(4, 1000, 10)
	prev.Wire = &WireSnapshot{Mode: "mmsg", RxBatches: 10, RxFrames: 300, RxTruncated: 1, TxBatches: 8, TxFrames: 250, TxSends: 40}
	cur := sampleSnapshot(4, 1600, 25)
	cur.Wire = &WireSnapshot{Mode: "mmsg", RxBatches: 25, RxFrames: 800, RxTruncated: 3, TxBatches: 20, TxFrames: 640, TxSends: 70}
	d := cur.Delta(prev)
	if d.Wire == nil {
		t.Fatal("Wire dropped by Delta")
	}
	if d.Wire.Mode != "mmsg" {
		t.Errorf("Mode is a gauge, got %q", d.Wire.Mode)
	}
	if d.Wire.RxBatches != 15 || d.Wire.RxFrames != 500 || d.Wire.RxTruncated != 2 {
		t.Errorf("rx wire deltas wrong: %+v", d.Wire)
	}
	if d.Wire.TxBatches != 12 || d.Wire.TxFrames != 390 || d.Wire.TxSends != 30 {
		t.Errorf("tx wire deltas wrong: %+v", d.Wire)
	}
	// One side missing → keep the cumulative view rather than invent a delta.
	cur2 := sampleSnapshot(4, 1600, 25)
	cur2.Wire = cur.Wire
	d2 := cur2.Delta(sampleSnapshot(4, 1000, 10))
	if d2.Wire == nil || d2.Wire.RxFrames != 800 {
		t.Errorf("Delta with no prev.Wire should keep cumulative counters: %+v", d2.Wire)
	}
}

func TestSumNodesWire(t *testing.T) {
	nodes := []NodeStats{
		{ID: 0, Egressed: 5, HeaderDrops: 3, TTLDrops: 1, Ingress: Snapshot{Wire: &WireSnapshot{RxBatches: 4, RxFrames: 100, TxBatches: 3, TxFrames: 90, TxSends: 9}}},
		{ID: 1, Egressed: 7, TxErrors: 2, Ingress: Snapshot{Wire: &WireSnapshot{RxBatches: 6, RxFrames: 150, TxBatches: 5, TxFrames: 120, TxSends: 12}}},
		{ID: 2, Egressed: 1, TTLDrops: 4, HeaderDrops: 4, TxErrors: 1}, // no wire block: contributes no wire counts
	}
	tot := SumNodes(nodes)
	if tot.Egressed != 13 {
		t.Errorf("Egressed = %d, want 13", tot.Egressed)
	}
	if tot.HeaderDrops != 7 || tot.TTLDrops != 5 || tot.TxErrors != 3 {
		t.Errorf("drop totals wrong: %+v", tot)
	}
	if tot.WireRxBatches != 10 || tot.WireRxFrames != 250 || tot.WireTxBatches != 8 || tot.WireTxFrames != 210 || tot.WireTxSends != 21 {
		t.Errorf("wire totals wrong: %+v", tot)
	}
}

func TestSnapshotDeltaGenerationBoundary(t *testing.T) {
	prev := sampleSnapshot(4, 1000, 10)
	cur := sampleSnapshot(5, 200, 2) // counters restarted after a reload
	d := cur.Delta(prev)
	if d.CoreStats[0].Packets != 200 || d.Rejected != 2 {
		t.Errorf("Delta across generations must return the new snapshot unchanged: %+v", d)
	}
}

func TestImbalanceRatio(t *testing.T) {
	s := Snapshot{CoreStats: []CoreSnapshot{
		{Core: 0, Packets: 300},
		{Core: 1, Packets: 100},
	}}
	// max 300 over mean 200.
	if got := s.ImbalanceRatio(); got != 1.5 {
		t.Errorf("ImbalanceRatio = %v, want 1.5", got)
	}
	if got := (Snapshot{}).ImbalanceRatio(); got != 0 {
		t.Errorf("empty snapshot imbalance = %v, want 0", got)
	}
	idle := Snapshot{CoreStats: []CoreSnapshot{{Core: 0}, {Core: 1}}}
	if got := idle.ImbalanceRatio(); got != 0 {
		t.Errorf("idle snapshot imbalance = %v, want 0", got)
	}
}

// TestDeltaImbalance proves Delta exposes the interval's skew, not the
// cumulative one: a history-balanced pipeline whose latest interval
// sent everything to core 0 must read as fully imbalanced.
func TestDeltaImbalance(t *testing.T) {
	prev := sampleSnapshot(4, 1000, 10)
	cur := sampleSnapshot(4, 1000, 10)
	cur.CoreStats[0].Packets = 1600 // +600 on core 0, +0 on core 1
	d := cur.Delta(prev)
	if d.Imbalance != 2 {
		t.Errorf("interval imbalance = %v, want 2 (all growth on one of two cores)", d.Imbalance)
	}
	// Across a generation boundary the new snapshot's own (cumulative)
	// ratio is reported.
	gen := sampleSnapshot(5, 200, 0)
	if got := gen.Delta(prev).Imbalance; got != gen.ImbalanceRatio() {
		t.Errorf("generation-boundary imbalance = %v, want %v", got, gen.ImbalanceRatio())
	}
}

func TestSnapshotDeltaSaturates(t *testing.T) {
	prev := sampleSnapshot(4, 1000, 10)
	cur := sampleSnapshot(4, 500, 3) // impossible within a generation; clamp
	d := cur.Delta(prev)
	if d.CoreStats[0].Packets != 0 || d.Rejected != 0 {
		t.Errorf("backward counters must clamp to 0: %+v", d)
	}
}
