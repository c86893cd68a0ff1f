package routebricks

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"routebricks/internal/click"
	"routebricks/internal/elements"
	"routebricks/internal/pkt"
)

// flowConfig is the per-flow-state gauntlet: a Reassembler (state keyed
// per datagram) feeding a FlowCounter (state keyed per 5-tuple). Clones
// of this graph are correct exactly when every packet of a flow — and
// every fragment of a datagram — reaches the same clone, which is what
// PushFlow's steering provides and what the tests below prove.
const flowConfig = `
	reasm :: Reassembler;
	fc    :: FlowCounter;
	reasm -> fc -> rec;
`

// flowRecorder is a terminal that records per-flow delivery order (by
// SeqNo). One instance is shared across every chain — the mutex makes
// that safe — so its per-flow sequences expose any cross-chain
// reordering, which per-chain terminals would hide.
type flowRecorder struct {
	click.Base
	mu    sync.Mutex
	seqs  map[pkt.FlowKey][]uint64
	count uint64
}

func newFlowRecorder() *flowRecorder {
	return &flowRecorder{seqs: make(map[pkt.FlowKey][]uint64)}
}

func (r *flowRecorder) InPorts() int  { return 1 }
func (r *flowRecorder) OutPorts() int { return 0 }

func (r *flowRecorder) Push(_ *click.Context, _ int, p *pkt.Packet) {
	k := p.Flow()
	r.mu.Lock()
	r.seqs[k] = append(r.seqs[k], p.SeqNo)
	r.count++
	r.mu.Unlock()
	pkt.DefaultPool.Put(p)
}

func (r *flowRecorder) total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

func (r *flowRecorder) sequences() map[pkt.FlowKey][]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[pkt.FlowKey][]uint64, len(r.seqs))
	for k, s := range r.seqs {
		out[k] = append([]uint64(nil), s...)
	}
	return out
}

// flowTraffic builds the interleaved multi-flow workload: nFlows flows,
// nData datagrams each, flows interleaved datagram by datagram. Every
// third flow is a bulk flow whose datagrams are all oversized and ship
// as fragment trains (contiguous within the flow, interleaved with
// other flows' traffic), so the Reassembler sees fragments of many
// datagrams in flight at once. Fragmentation is a per-flow property on
// purpose: fragments hash on the 3-tuple (ports are only in the first
// fragment — the real-RSS rule pkt.RSSHash implements), so a flow that
// mixed fragmented and unfragmented datagrams would legitimately steer
// to two buckets. SeqNo numbers each flow's datagrams 0..nData-1 —
// Fragment propagates it to every fragment and the Reassembler to the
// rebuilt datagram, so a terminal can check per-flow order end to end.
func flowTraffic(nFlows, nData int) []*pkt.Packet {
	var out []*pkt.Packet
	id := uint16(1)
	for d := 0; d < nData; d++ {
		for f := 0; f < nFlows; f++ {
			src := netip.AddrFrom4([4]byte{10, 1, byte(f), 1})
			dst := netip.AddrFrom4([4]byte{10, 2, byte(f), 2})
			size := 128
			if f%3 == 1 {
				size = 1400 // fragments into a 3-packet train at MTU 576
			}
			p := pkt.New(size, src, dst, uint16(2000+f), 443)
			p.SeqNo = uint64(d)
			p.IPv4().SetID(id)
			id++
			if size > 576 {
				out = append(out, p.Fragment(576)...)
				// The oversized original never travels; only its fragments
				// do. Return its buffer (the fragments own fresh ones).
				pkt.DefaultPool.Put(p)
			} else {
				out = append(out, p)
			}
		}
	}
	return out
}

// skewPorts probes the pipeline's steering table for nFlows source
// ports whose flows (src 10.9.0.1:port → dst 10.0.0.5:443) land in
// distinct buckets all currently assigned to the given chain — the
// deterministic way to build a fully skewed flow population.
func skewPorts(t *testing.T, pipe *Pipeline, chain, nFlows int) []uint16 {
	t.Helper()
	tbl := pipe.RSS()
	src := netip.MustParseAddr("10.9.0.1")
	dst := netip.MustParseAddr("10.0.0.5")
	seen := make(map[int]bool)
	var ports []uint16
	for port := uint16(3000); port < 60000 && len(ports) < nFlows; port++ {
		p := pkt.New(128, src, dst, port, 443)
		b, c := tbl.Steer(p.RSSHash())
		pkt.DefaultPool.Put(p)
		if c == chain && !seen[b] {
			seen[b] = true
			ports = append(ports, port)
		}
	}
	if len(ports) < nFlows {
		t.Fatalf("found only %d/%d flows steering to chain %d", len(ports), nFlows, chain)
	}
	return ports
}

// skewPacket builds one packet of a skewPorts flow, shaped to forward
// cleanly through branchyConfig (routed dst, fresh TTL and checksum).
func skewPacket(port uint16, seq uint64) *pkt.Packet {
	p := pkt.New(128, netip.MustParseAddr("10.9.0.1"), netip.MustParseAddr("10.0.0.5"), port, 443)
	h := p.IPv4()
	h.SetTTL(64)
	h.UpdateChecksum()
	p.SeqNo = seq
	return p
}

// feedFlowStep drives perFlow packets of every port through PushFlow in
// step mode and drains — one deterministic observation interval of
// flow-steered traffic.
func feedFlowStep(t *testing.T, pipe *Pipeline, ports []uint16, perFlow int, seq *uint64) {
	t.Helper()
	for i := 0; i < perFlow; i++ {
		for _, port := range ports {
			p := skewPacket(port, *seq)
			*seq++
			for !pipe.PushFlow(p) {
				pipe.Step()
			}
			pipe.Step()
		}
	}
	for quiet := 0; quiet < 2; {
		if pipe.Step() == 0 && pipe.Queued() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
}

// TestFlowConsistency is the flow-steering correctness contract: the
// per-flow-stateful graph (fragment trains through a Reassembler, then
// a FlowCounter) run through PushFlow at 1/2/4/8 parallel cores
// delivers, per flow, exactly what the same graph produces on a plain
// single-core Router — same per-flow counts and bytes, same per-flow
// delivery order, zero loss — and no flow's state is split across
// chains. Under -race this is the steering layer's concurrency gate.
func TestFlowConsistency(t *testing.T) {
	const nFlows, nData = 24, 32
	want := nFlows * nData // datagrams delivered after reassembly

	// Oracle: the same Click text on a plain single-core Router.
	ref := newFlowRecorder()
	router, err := click.ParseConfig(flowConfig, elements.StandardRegistry(),
		map[string]Element{"rec": ref})
	if err != nil {
		t.Fatal(err)
	}
	entry := router.Get("reasm")
	ctx := &click.Context{}
	for _, p := range flowTraffic(nFlows, nData) {
		entry.Push(ctx, 0, p)
	}
	if ref.total() != uint64(want) {
		t.Fatalf("oracle delivered %d of %d datagrams", ref.total(), want)
	}
	wantSeqs := ref.sequences()
	wantFlows := router.Get("fc").(*elements.FlowCounter).Snapshot()
	if len(wantFlows) != nFlows {
		t.Fatalf("oracle FlowCounter saw %d flows, want %d", len(wantFlows), nFlows)
	}

	for _, cores := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			rec := newFlowRecorder()
			pipe, err := Load(flowConfig, Options{
				Cores:     cores,
				Placement: Parallel,
				Prebound:  func(int) map[string]Element { return map[string]Element{"rec": rec} },
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := pipe.Start(); err != nil {
				t.Fatal(err)
			}
			defer pipe.Stop()

			packets := flowTraffic(nFlows, nData)
			deadline := time.Now().Add(30 * time.Second)
			for fed := 0; fed < len(packets); {
				if pipe.PushFlow(packets[fed]) {
					fed++
				} else {
					runtime.Gosched()
				}
				if time.Now().After(deadline) {
					t.Fatalf("feed stalled at %d/%d", fed, len(packets))
				}
			}
			for rec.total() < uint64(want) {
				runtime.Gosched()
				if time.Now().After(deadline) {
					t.Fatalf("delivered %d/%d datagrams before deadline", rec.total(), want)
				}
			}
			pipe.Stop()

			if drops := pipe.Snapshot().Drops; drops != 0 {
				t.Errorf("%d drops, want 0", drops)
			}
			// Per-flow delivery order matches the oracle exactly — flow
			// affinity preserved order even though chains ran concurrently.
			gotSeqs := rec.sequences()
			if len(gotSeqs) != len(wantSeqs) {
				t.Fatalf("delivered %d flows, want %d", len(gotSeqs), len(wantSeqs))
			}
			for k, wantSeq := range wantSeqs {
				got := gotSeqs[k]
				if len(got) != len(wantSeq) {
					t.Fatalf("flow %v delivered %d datagrams, want %d", k, len(got), len(wantSeq))
					continue
				}
				for i := range wantSeq {
					if got[i] != wantSeq[i] {
						t.Errorf("flow %v reordered: position %d got seq %d, want %d", k, i, got[i], wantSeq[i])
						break
					}
				}
			}
			// Per-flow state partitioned, not split: each flow's counts
			// live in exactly one chain's FlowCounter, and the merged view
			// equals the oracle's.
			merged := make(map[pkt.FlowKey]elements.FlowStat)
			for chain := 0; chain < pipe.Chains(); chain++ {
				fc := pipe.Element(chain, "fc").(*elements.FlowCounter)
				for k, st := range fc.Snapshot() {
					if _, dup := merged[k]; dup {
						t.Errorf("flow %v split across chains", k)
					}
					merged[k] = st
				}
			}
			if len(merged) != len(wantFlows) {
				t.Fatalf("merged FlowCounters hold %d flows, want %d", len(merged), len(wantFlows))
			}
			for k, w := range wantFlows {
				if merged[k] != w {
					t.Errorf("flow %v counts %+v, want %+v", k, merged[k], w)
				}
			}
			// The steering table saw every successful push.
			snap := pipe.Snapshot()
			if snap.RSS == nil {
				t.Fatal("snapshot has no RSS section")
			}
			var steered uint64
			for _, c := range snap.RSS.Counts {
				steered += c
			}
			if steered != uint64(len(packets)) {
				t.Errorf("bucket counters saw %d packets, want %d", steered, len(packets))
			}
		})
	}
}

// TestFlowConsistencyReSteer drives the full skew-to-rebalance story
// deterministically: every flow of the population steers to chain 0 of
// a 4-core plan, the controller's first Observe fixes it with a bucket
// re-steer (no replan), and the traffic that continues across the
// rewrite arrives complete and in per-flow order — the zero-loss,
// no-reorder contract of the drain barrier — with the rebalance visible
// in Snapshot.RSS.
func TestFlowConsistencyReSteer(t *testing.T) {
	rec := newFlowRecorder()
	pipe, err := Load(flowConfig, Options{
		Cores:     4,
		Placement: Parallel,
		Prebound:  func(int) map[string]Element { return map[string]Element{"rec": rec} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := pipe.NewController(ControllerConfig{
		MinPackets:   64,
		RejectedStep: -1,
		ReSteer:      true,
		ReSteerMax:   16,
	})

	const nFlows, perFlow = 12, 48
	ports := skewPorts(t, pipe, 0, nFlows)
	seqs := make(map[uint16]uint64, nFlows)

	feed := func() {
		for i := 0; i < perFlow; i++ {
			for _, port := range ports {
				p := skewPacket(port, seqs[port])
				seqs[port]++
				for !pipe.PushFlow(p) {
					pipe.Step()
				}
				pipe.Step()
			}
		}
		for quiet := 0; quiet < 2; {
			if pipe.Step() == 0 && pipe.Queued() == 0 {
				quiet++
			} else {
				quiet = 0
			}
		}
	}

	// Interval 1: full skew — every flow on chain 0 of 4.
	feed()
	before := pipe.Snapshot()
	if before.Imbalance < 3.9 {
		t.Fatalf("skew population not skewed: imbalance %.2f", before.Imbalance)
	}
	if !ctrl.Observe() {
		t.Fatal("controller did not act on full skew")
	}
	st := ctrl.State()
	if st.ReSteers != 1 || st.Replans != 0 {
		t.Fatalf("want exactly one re-steer and no replan, got %+v", st)
	}
	if st.MovedBuckets == 0 {
		t.Fatalf("re-steer moved no buckets: %+v", st)
	}
	if pipe.Generation() != 0 {
		t.Fatalf("re-steer must not swap the plan (generation %d)", pipe.Generation())
	}

	// Interval 2: the same flows, now spread by the rewritten table.
	feed()
	if ctrl.Observe() {
		t.Fatal("controller fired on the load the re-steer balanced")
	}
	st = ctrl.State()
	if !st.Armed {
		t.Fatalf("rebalanced interval did not re-arm: %+v", st)
	}
	if st.LastImbalance >= 1.5 {
		t.Fatalf("imbalance %.2f after re-steer, want below high water", st.LastImbalance)
	}

	// Zero loss and per-flow order across the rewrite.
	total := uint64(nFlows * perFlow * 2)
	if rec.total() != total {
		t.Fatalf("delivered %d of %d packets across the re-steer", rec.total(), total)
	}
	if drops := pipe.Snapshot().Drops; drops != 0 {
		t.Fatalf("%d drops across the re-steer, want 0", drops)
	}
	for k, seq := range rec.sequences() {
		for i, s := range seq {
			if s != uint64(i) {
				t.Fatalf("flow %v out of order at position %d: seq %d", k, i, s)
			}
		}
	}

	// The rebalance is observable: one table rewrite, moved buckets now
	// assigned off chain 0.
	snap := pipe.Snapshot()
	if snap.RSS == nil || snap.RSS.Generation != 1 || snap.RSS.Moved != uint64(st.MovedBuckets) {
		t.Fatalf("RSS snapshot does not record the re-steer: %+v", snap.RSS)
	}
}

// TestControllerReSteerHysteresis is the deterministic re-steer ladder
// contract on the branchy forwarding graph: a fully skewed flow
// population re-steers exactly once (no replan, no flapping), the
// rewritten table survives subsequent balanced intervals, and the
// controller re-arms only after the load settles.
func TestControllerReSteerHysteresis(t *testing.T) {
	pipe := controllerPipe(t)
	ctrl := pipe.NewController(ControllerConfig{
		HighWater:    1.5,
		LowWater:     1.1,
		MinPackets:   64,
		RejectedStep: -1,
		ReSteer:      true,
	})
	tbl := pipe.RSS()
	ports := skewPorts(t, pipe, 0, 8)
	var seq uint64

	// Skewed interval: everything on chain 0 of 2 → one re-steer.
	feedFlowStep(t, pipe, ports, 64, &seq)
	if !ctrl.Observe() {
		t.Fatal("controller did not act on a skewed interval")
	}
	st := ctrl.State()
	if st.ReSteers != 1 || st.Replans != 0 || st.Armed {
		t.Fatalf("post-trip state wrong: %+v", st)
	}
	if !strings.Contains(st.LastReason, "re-steered") {
		t.Fatalf("LastReason does not record the re-steer: %q", st.LastReason)
	}
	if pipe.Generation() != 0 {
		t.Fatalf("re-steer replaced the plan (generation %d)", pipe.Generation())
	}
	if tbl.Generation() != 1 {
		t.Fatalf("table generation %d after one re-steer, want 1", tbl.Generation())
	}
	// Half the (equal) hot buckets migrate to the cold chain.
	if moved := tbl.Moved(); moved != 4 {
		t.Fatalf("moved %d buckets, want 4 of 8", moved)
	}

	// The same population again: the rewrite balanced it, so the
	// controller re-arms and the table never flaps.
	feedFlowStep(t, pipe, ports, 64, &seq)
	if ctrl.Observe() {
		t.Fatal("controller fired on the load the re-steer balanced")
	}
	st = ctrl.State()
	if !st.Armed || st.ReSteers != 1 {
		t.Fatalf("rebalanced interval state wrong: %+v", st)
	}
	if st.LastImbalance >= 1.1 {
		t.Fatalf("imbalance %.2f after re-steer, want below low water", st.LastImbalance)
	}
	feedFlowStep(t, pipe, ports, 64, &seq)
	if ctrl.Observe() {
		t.Fatal("controller fired again on steady balanced flows")
	}
	if g := tbl.Generation(); g != 1 {
		t.Fatalf("table flapped to generation %d", g)
	}
}

// TestControllerReSteerEscalation proves re-steering gives way to the
// heavier action when it cannot help: after a re-steer, a skew that
// carries no bucket signal (raw chain-pinned pushes) persists
// ReSteerPersist intervals, and only then does the controller escalate
// to a full replan.
func TestControllerReSteerEscalation(t *testing.T) {
	pipe := controllerPipe(t)
	ctrl := pipe.NewController(ControllerConfig{
		MinPackets:     64,
		RejectedStep:   -1,
		ReSteer:        true,
		ReSteerPersist: 2,
	})
	ports := skewPorts(t, pipe, 0, 8)
	var seq uint64

	// First trip: handled by a re-steer.
	feedFlowStep(t, pipe, ports, 64, &seq)
	if !ctrl.Observe() {
		t.Fatal("controller did not re-steer")
	}
	if st := ctrl.State(); st.ReSteers != 1 || st.Replans != 0 {
		t.Fatalf("first trip: %+v", st)
	}

	// The skew returns in a shape bucket migration cannot express —
	// packets pinned to chain 0 by plain Push tick no bucket counters.
	// One persisting interval is tolerated...
	feedStep(t, pipe, 0, 512)
	if ctrl.Observe() {
		t.Fatal("controller escalated before ReSteerPersist")
	}
	if st := ctrl.State(); st.Replans != 0 {
		t.Fatalf("premature replan: %+v", st)
	}
	// ...the second escalates to the replan action.
	feedStep(t, pipe, 0, 512)
	if !ctrl.Observe() {
		t.Fatal("controller did not escalate after persistent skew")
	}
	st := ctrl.State()
	if st.Replans != 1 || st.ReSteers != 1 {
		t.Fatalf("escalation state wrong: %+v", st)
	}
	if !strings.Contains(st.LastReason, "re-steer escalation") {
		t.Fatalf("LastReason does not record the escalation: %q", st.LastReason)
	}
	if pipe.Generation() != 1 {
		t.Fatalf("generation %d after the escalated replan, want 1", pipe.Generation())
	}
}
