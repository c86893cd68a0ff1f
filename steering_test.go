package routebricks

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"routebricks/internal/click"
	"routebricks/internal/elements"
	"routebricks/internal/pkt"
	"routebricks/internal/rss"
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
		})
	}
}

// chainTally is what every chainRecorder of a pipeline adds to: the
// chain count the test expects PushFlow to steer across, the packets
// delivered, and how many of them arrived on another chain than
// rss.Chain names.
type chainTally struct {
	chains      int
	got, misses uint64
}

// chainRecorder is a per-chain terminal: each chain binds its own
// instance, so a packet's arrival names the chain PushFlow steered it
// to.
type chainRecorder struct {
	click.Base
	chain int
	tally *chainTally
}

func (r *chainRecorder) InPorts() int  { return 1 }
func (r *chainRecorder) OutPorts() int { return 0 }

func (r *chainRecorder) Push(_ *click.Context, _ int, p *pkt.Packet) {
	r.tally.got++
	if rss.Chain(p.RSSHash(), r.tally.chains) != r.chain {
		r.tally.misses++
	}
	pkt.DefaultPool.Put(p)
}

// TestPushFlowFollowsChainCount pins PushFlow to the static RSS table:
// every packet reaches chain rss.Chain(hash, chains) of the current
// plan, and a Reload that changes the chain count re-steers every flow
// to the new width at the swap, with nothing lost. Three chains is
// where the table's mask-then-modulo differs from a plain modulo of
// the hash.
func TestPushFlowFollowsChainCount(t *testing.T) {
	const nFlows, perFlow = 32, 4
	tally := &chainTally{chains: 4}
	pipe, err := Load(flowConfig, Options{
		Cores:     tally.chains,
		Placement: Parallel,
		Prebound: func(chain int) map[string]Element {
			return map[string]Element{"rec": &chainRecorder{chain: chain, tally: tally}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	flow := func(f int, seq uint64) *pkt.Packet {
		p := pkt.New(128, netip.AddrFrom4([4]byte{10, 1, byte(f), 1}), netip.AddrFrom4([4]byte{10, 2, 0, 2}), uint16(2000+f), 443)
		p.SeqNo = seq
		return p
	}
	plainModulo := false
	for f := 0; f < nFlows; f++ {
		p := flow(f, 0)
		h := p.RSSHash()
		plainModulo = plainModulo || rss.Chain(h, 3) != int(h%3)
		pkt.DefaultPool.Put(p)
	}
	if !plainModulo {
		t.Fatal("no flow tells the table from a plain modulo at 3 chains")
	}
	feed := func(phase string) {
		t.Helper()
		tally.got, tally.misses = 0, 0
		for i := 0; i < perFlow; i++ {
			for f := 0; f < nFlows; f++ {
				p := flow(f, uint64(i))
				for !pipe.PushFlow(p) {
					pipe.Step()
				}
			}
		}
		for pipe.Step() > 0 || pipe.Queued() > 0 {
			// step until the rings are dry
		}
		if tally.got != nFlows*perFlow || tally.misses != 0 {
			t.Fatalf("%s: delivered %d of %d packets, %d to the wrong chain", phase, tally.got, nFlows*perFlow, tally.misses)
		}
		if drops := pipe.Snapshot().Drops; drops != 0 {
			t.Fatalf("%s: %d drops, want 0", phase, drops)
		}
	}
	feed("4 chains")
	tally.chains = 3
	if err := pipe.Reload(flowConfig, Options{Cores: tally.chains}); err != nil {
		t.Fatal(err)
	}
	if pipe.Chains() != 3 {
		t.Fatalf("reload left %d chains, want 3", pipe.Chains())
	}
	feed("3 chains after reload")
}
