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
	"routebricks/internal/lpm"
	"routebricks/internal/pkt"
)

// branchyConfig is a Click-language program with one multi-output
// element per trunk hop, each side output routed to its own terminal —
// the graph shape the graph-first planner exists for.
const branchyConfig = `
	// IP forwarding with per-cause accounting; fib and the four
	// terminals are prebound by the host.
	check :: CheckIPHeader;
	rt    :: LPMLookup(fib);
	ttl   :: DecIPTTL;
	good  :: Counter;

	check[0] -> rt;
	check[1] -> badhdr;
	rt[0]    -> ttl;
	rt[1]    -> badroute;
	ttl[0]   -> good;
	ttl[1]   -> expired;
	good     -> out;
`

// equivTerminals is one chain's set of counting terminals.
type equivTerminals struct {
	out, badhdr, badroute, expired *elements.Sink
}

func newEquivTerminals() *equivTerminals {
	return &equivTerminals{
		out: &elements.Sink{}, badhdr: &elements.Sink{},
		badroute: &elements.Sink{}, expired: &elements.Sink{},
	}
}

func (e *equivTerminals) prebound(table *lpm.Dir248) map[string]Element {
	return map[string]Element{
		"fib":      elements.NewLPMLookup(table),
		"out":      e.out,
		"badhdr":   e.badhdr,
		"badroute": e.badroute,
		"expired":  e.expired,
	}
}

// counts returns (delivered, badHeader, routeMiss, ttlExpired).
func (e *equivTerminals) counts() [4]uint64 {
	return [4]uint64{e.out.Count(), e.badhdr.Count(), e.badroute.Count(), e.expired.Count()}
}

func (e *equivTerminals) total() uint64 {
	c := e.counts()
	return c[0] + c[1] + c[2] + c[3]
}

// equivPackets builds a deterministic mixed workload: i%4 selects
// routed, bad-checksum, route-miss, or TTL-expiring packets.
func equivPackets(n int) []*pkt.Packet {
	src := netip.MustParseAddr("10.1.0.9")
	out := make([]*pkt.Packet, n)
	for i := range out {
		dst := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		if i%4 == 2 {
			dst = netip.AddrFrom4([4]byte{172, 16, 0, byte(i)}) // not in the FIB
		}
		p := pkt.New(128, src, dst, uint16(1000+i%512), 80)
		h := p.IPv4()
		switch i % 4 {
		case 1: // stale checksum: CheckIPHeader must divert it
			h.SetTTL(77)
		case 3: // expires at DecIPTTL
			h.SetTTL(1)
			h.UpdateChecksum()
		default:
			h.SetTTL(64)
			h.UpdateChecksum()
		}
		p.SeqNo = uint64(i)
		out[i] = p
	}
	return out
}

func equivTable(t testing.TB) *lpm.Dir248 {
	t.Helper()
	table := lpm.NewDir248()
	if err := table.Insert(netip.MustParsePrefix("10.0.0.0/16"), 1); err != nil {
		t.Fatal(err)
	}
	table.Freeze()
	return table
}

// TestLoadEquivalence proves the graph-level contract: the branchy
// program run through routebricks.Load at 1/2/4 cores, under both
// placements, on real goroutines, delivers the identical per-port
// packet counts as the same graph stepped single-threaded on a plain
// Router. Run under -race this is also the concurrency gate for the
// graph planner.
func TestLoadEquivalence(t *testing.T) {
	const n = 8192
	table := equivTable(t)

	// Reference: the same Click text on a plain single-core Router.
	ref := newEquivTerminals()
	router, err := click.ParseConfig(branchyConfig, elements.StandardRegistry(), ref.prebound(table))
	if err != nil {
		t.Fatal(err)
	}
	entry := router.Get("check")
	ctx := &click.Context{}
	for _, p := range equivPackets(n) {
		entry.Push(ctx, 0, p)
	}
	want := ref.counts()
	if ref.total() != n {
		t.Fatalf("reference counts %v don't cover all %d packets", want, n)
	}
	for i, w := range want {
		if w == 0 {
			t.Fatalf("reference class %d empty — the workload no longer exercises every port", i)
		}
	}

	for _, kind := range []PlanKind{Parallel, Pipelined} {
		for _, cores := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/cores=%d", kind, cores), func(t *testing.T) {
				var chains []*equivTerminals
				pipe, err := Load(branchyConfig, Options{
					Cores:     cores,
					Placement: kind,
					Prebound: func(chain int) map[string]Element {
						term := newEquivTerminals()
						chains = append(chains, term)
						return term.prebound(table)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := pipe.Start(); err != nil {
					t.Fatal(err)
				}
				defer pipe.Stop()

				total := func() uint64 {
					var s uint64
					for _, term := range chains {
						s += term.total()
					}
					return s
				}
				deadline := time.Now().Add(30 * time.Second)
				packets := equivPackets(n)
				for fed := 0; fed < n; {
					if pipe.Push(fed%pipe.Chains(), packets[fed]) {
						fed++
					} else {
						runtime.Gosched()
					}
					if time.Now().After(deadline) {
						t.Fatalf("feed stalled at %d/%d", fed, n)
					}
				}
				for total() < n {
					runtime.Gosched()
					if time.Now().After(deadline) {
						t.Fatalf("delivered %d/%d before deadline", total(), n)
					}
				}

				if drops := pipe.Snapshot().Drops; drops != 0 {
					t.Errorf("%d plan drops, want 0 (loss-free contract)", drops)
				}
				var got [4]uint64
				for _, term := range chains {
					c := term.counts()
					for i := range got {
						got[i] += c[i]
					}
				}
				if got != want {
					t.Errorf("per-port counts = %v, want %v (single-core reference)", got, want)
				}
			})
		}
	}
}

// TestRunBatchEquivalence is TestLoadEquivalence for the
// run-to-completion entry: feeders hand batches to RunBatch on their own
// goroutines, a parallel plan runs wholly on them and a pipelined one
// runs its first stage there and the rest on the started Runner. The
// per-port counts must match the single-core reference. The last case
// puts two feeders on one chain to exercise the per-chain lock.
func TestRunBatchEquivalence(t *testing.T) {
	const n = 8192
	table := equivTable(t)
	ref := newEquivTerminals()
	router, err := click.ParseConfig(branchyConfig, elements.StandardRegistry(), ref.prebound(table))
	if err != nil {
		t.Fatal(err)
	}
	entry := router.Get("check")
	for _, p := range equivPackets(n) {
		entry.Push(&click.Context{}, 0, p)
	}
	want := ref.counts()

	type tc struct {
		kind   PlanKind
		cores  int
		shared bool // two feeders on chain 0 instead of one feeder per chain
	}
	var cases []tc
	for _, kind := range []PlanKind{Parallel, Pipelined} {
		for _, cores := range []int{1, 2, 4} {
			cases = append(cases, tc{kind, cores, false})
		}
	}
	cases = append(cases, tc{Pipelined, 2, true})
	for _, c := range cases {
		name := fmt.Sprintf("%s/cores=%d", c.kind, c.cores)
		if c.shared {
			name += "/shared-chain"
		}
		t.Run(name, func(t *testing.T) {
			var chains []*equivTerminals
			pipe, err := Load(branchyConfig, Options{
				Cores:     c.cores,
				Placement: c.kind,
				Prebound: func(chain int) map[string]Element {
					term := newEquivTerminals()
					chains = append(chains, term)
					return term.prebound(table)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.kind == Pipelined {
				if err := pipe.Start(); err != nil {
					t.Fatal(err)
				}
				defer pipe.Stop()
			}
			// Feeder f runs queue f, so queue % Chains() gives each chain
			// one feeder — or, shared, puts both feeders on chain 0.
			feeders, queues := pipe.Chains(), pipe.Chains()
			if c.shared {
				feeders, queues = 2, 1
			}
			packets := equivPackets(n)
			var wg sync.WaitGroup
			for f := 0; f < feeders; f++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := &click.Context{PoolShard: pkt.DefaultPool.Shard(f)}
					b := pkt.NewBatch(32)
					for i := f; i < n; i += feeders {
						b.Add(packets[i])
						if b.Full() {
							pipe.RunBatch(f%queues, ctx, b)
						}
					}
					pipe.RunBatch(f%queues, ctx, b)
				}()
			}
			wg.Wait()

			total := func() uint64 {
				var s uint64
				for _, term := range chains {
					s += term.total()
				}
				return s
			}
			deadline := time.Now().Add(30 * time.Second)
			for total() < n {
				runtime.Gosched()
				if time.Now().After(deadline) {
					t.Fatalf("delivered %d/%d before deadline", total(), n)
				}
			}
			if drops := pipe.Snapshot().Drops; drops != 0 {
				t.Errorf("%d plan drops, want 0 (loss-free contract)", drops)
			}
			var got [4]uint64
			for _, term := range chains {
				cnt := term.counts()
				for i := range got {
					got[i] += cnt[i]
				}
			}
			if got != want {
				t.Errorf("per-port counts = %v, want %v (single-core reference)", got, want)
			}
		})
	}
}

// TestRunBatchSmallHandoff: a started pipelined chain whose handoff
// ring is smaller than the batch must still take the whole batch.
// Waiting for room for all of it at once would spin forever, holding
// the locks Stop needs; RunBatch instead feeds the ring in ring-sized
// chunks, and every packet is delivered or counted as a drop.
func TestRunBatchSmallHandoff(t *testing.T) {
	const n = 32
	table := equivTable(t)
	var chains []*equivTerminals
	pipe, err := Load(branchyConfig, Options{
		Cores:      2,
		Placement:  Pipelined,
		HandoffCap: 8,
		Prebound: func(chain int) map[string]Element {
			term := newEquivTerminals()
			chains = append(chains, term)
			return term.prebound(table)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pipe.Plan().Rings()) != 2 {
		t.Fatalf("want one chain with one handoff ring:\n%s", pipe.Describe())
	}
	if err := pipe.Start(); err != nil {
		t.Fatal(err)
	}
	b := pkt.NewBatch(n)
	for _, p := range equivPackets(n) {
		b.Add(p)
	}
	done := make(chan int, 1)
	go func() { done <- pipe.RunBatch(0, &click.Context{PoolShard: pkt.DefaultPool.Shard(0)}, b) }()
	select {
	case got := <-done:
		if got != n || b.Len() != 0 {
			t.Fatalf("RunBatch = %d with %d left in the batch, want %d and 0", got, b.Len(), n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunBatch stuck on a handoff ring smaller than the batch")
	}
	defer pipe.Stop()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var delivered uint64
		for _, term := range chains {
			delivered += term.total()
		}
		if got := delivered + pipe.Snapshot().Drops; got == n {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("delivered + drops = %d, want %d", got, n)
		}
		runtime.Gosched()
	}
}

// TestLoadDeterministicStep drives a loaded pipeline with Step instead
// of goroutines — the virtual-core mode simulations use.
func TestLoadDeterministicStep(t *testing.T) {
	const n = 1024
	table := equivTable(t)
	var chains []*equivTerminals
	pipe, err := Load(branchyConfig, Options{
		Cores:     2,
		Placement: Pipelined,
		Prebound: func(chain int) map[string]Element {
			term := newEquivTerminals()
			chains = append(chains, term)
			return term.prebound(table)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	packets := equivPackets(n)
	fed := 0
	for fed < n {
		for c := 0; c < pipe.Chains() && fed < n; c++ {
			if pipe.Push(c, packets[fed]) {
				fed++
			}
		}
		pipe.Step()
	}
	for quiet := 0; quiet < 2; {
		if pipe.Step() == 0 && pipe.Queued() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	var total uint64
	for _, term := range chains {
		total += term.total()
	}
	if total != n {
		t.Fatalf("delivered %d of %d", total, n)
	}
}

// TestLoadSurface covers the inspection API: Describe, DOT, Element,
// and option validation.
func TestLoadSurface(t *testing.T) {
	table := equivTable(t)
	pipe, err := Load(branchyConfig, Options{
		Cores:     4,
		Placement: Pipelined,
		Prebound: func(chain int) map[string]Element {
			return newEquivTerminals().prebound(table)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Cores() != 4 {
		t.Errorf("Cores = %d", pipe.Cores())
	}
	desc := pipe.Describe()
	if !strings.Contains(desc, "pipelined plan") || !strings.Contains(desc, "check") {
		t.Errorf("Describe missing placement detail:\n%s", desc)
	}
	dot := pipe.DOT()
	for _, want := range []string{`"check" -> "rt" [label="[0]->[0]"]`, `"check" -> "badhdr" [label="[1]->[0]"]`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if pipe.Element(0, "good") == nil || pipe.Element(0, "ghost") != nil {
		t.Error("Element lookup wrong")
	}
	if pipe.Router(0) == nil {
		t.Error("Router(0) nil")
	}

	if _, err := Load("check :: CheckIPHeader", Options{}); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := Load("a :: Nope; a -> a;", Options{}); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := Load(branchyConfig, Options{Cores: -1}); err == nil {
		t.Error("negative cores accepted")
	}
}

// TestStepClock drives a Reassembler with a 50 ms timeout through Load
// and Step, then again after a Reload: first fragments of distinct
// datagrams that never complete must be evicted once the timeout has
// passed, so Step's context carries a clock on both plans.
func TestStepClock(t *testing.T) {
	const prog = "re :: Reassembler; re -> out;"
	opts := Options{Prebound: func(int) map[string]Element {
		return map[string]Element{"out": &elements.Sink{}}
	}}
	pipe, err := Load(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := uint16(0)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			id++
			p := pkt.New(1400, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), 1, 2)
			p.IPv4().SetID(id)
			frags := p.Fragment(576)
			if !pipe.Push(0, frags[0]) {
				t.Fatal("input ring full")
			}
		}
		for pipe.Step() > 0 {
		}
	}
	for _, phase := range []string{"Load", "Reload"} {
		if phase == "Reload" {
			if err := pipe.Reload(prog, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		re := pipe.Element(0, "re").(*elements.Reassembler)
		re.TimeoutNs = int64(50 * time.Millisecond)
		feed(10)
		if re.Pending() != 10 {
			t.Fatalf("%s: pending = %d, want 10", phase, re.Pending())
		}
		time.Sleep(100 * time.Millisecond)
		feed(1) // eviction runs on traffic
		if re.TimedOut() == 0 || re.Pending() != 1 {
			t.Fatalf("%s: timed out %d, pending %d after the timeout; want > 0 and 1", phase, re.TimedOut(), re.Pending())
		}
	}
}
