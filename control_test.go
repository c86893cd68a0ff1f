package routebricks

import (
	"strings"
	"sync"
	"testing"
	"time"

	"routebricks/internal/elements"
	"routebricks/internal/pkt"
)

// TestOptionsValidation covers the up-front Options gate: negative
// sizing knobs are rejected with a descriptive error instead of being
// silently rounded inside exec.NewRing.
func TestOptionsValidation(t *testing.T) {
	table := equivTable(t)
	prebound := func(chain int) map[string]Element {
		return newEquivTerminals().prebound(table)
	}
	bad := []struct {
		name string
		opts Options
		want string
	}{
		{"cores", Options{Cores: -1}, "Cores"},
		{"kp", Options{KP: -8}, "KP"},
		{"inputcap", Options{InputCap: -4096}, "InputCap"},
		{"handoffcap", Options{HandoffCap: -1}, "HandoffCap"},
		{"placement", Options{Placement: PlanKind(7)}, "Placement"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.Prebound = prebound
			if _, err := Load(branchyConfig, tc.opts); err == nil {
				t.Fatalf("Load accepted %+v", tc.opts)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad field %q", err, tc.want)
			}
		})
	}

	// Reload validates too, and a failed validation leaves the old plan
	// running.
	pipe, err := Load(branchyConfig, Options{Prebound: prebound})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Reload(branchyConfig, Options{KP: -1}); err == nil {
		t.Fatal("Reload accepted negative KP")
	}
	if pipe.Generation() != 0 {
		t.Fatalf("failed Reload bumped generation to %d", pipe.Generation())
	}
}

// autoPrebound supplies hermetic terminals for the BenchmarkPlacement
// Click program (placementConfig, bench_test.go) — the workload the
// Auto-placement contract is stated against.
func autoPrebound(t *testing.T) (func(chain int) map[string]Element, func(chain int) Element) {
	t.Helper()
	table := equivTable(t)
	sink := func() Element { return &elements.Sink{Recycle: pkt.DefaultPool} }
	prebound := func(chain int) map[string]Element {
		return map[string]Element{
			"fib":      elements.NewLPMLookup(table),
			"badhdr":   sink(),
			"badroute": sink(),
			"badttl":   sink(),
		}
	}
	return prebound, func(int) Element { return sink() }
}

// shaperConfig puts a Shaper, Shared state that cloning would split,
// on a forwarding trunk.
const shaperConfig = `
	check :: CheckIPHeader;
	sh    :: Shaper(1000000000, 100000);
	ttl   :: DecIPTTL;
	cnt   :: Counter;
	d     :: Discard;
	check -> sh -> ttl -> cnt -> d;
`

// TestAutoPlacement pins Placement: Auto's rule: the BenchmarkPlacement
// workload, whose elements all clone safely, runs Parallel at every
// core count, and a graph holding a Shared element runs as one
// Pipelined chain instead of failing the cloning gate. Describe and
// Snapshot.Decision name the element that decided it.
func TestAutoPlacement(t *testing.T) {
	prebound, sinkFn := autoPrebound(t)
	cases := []struct {
		name   string
		config string
		cores  int
		want   PlanKind
		chains int
		// decided is what Describe and Snapshot.Decision must contain.
		decided string
	}{
		{"cores=1", placementConfig, 1, Parallel, 1, "auto: 1 core → parallel"},
		{"cores=2", placementConfig, 2, Parallel, 2, "no element pins state"},
		{"cores=4", placementConfig, 4, Parallel, 4, "no element pins state"},
		{"cores=8", placementConfig, 8, Parallel, 8, "no element pins state"},
		{"shaper-trunk/cores=2", shaperConfig, 2, Pipelined, 1, "shared-state elements [sh]"},
		{"shaper-only/cores=4", "sh :: Shaper(1000000000, 100000); d :: Discard; sh -> d;", 4, Pipelined, 1, "shared-state elements [sh]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Cores: tc.cores, Placement: Auto}
			if tc.config == placementConfig {
				opts.Prebound, opts.Sink = prebound, sinkFn
			}
			pipe, err := Load(tc.config, opts)
			if err != nil {
				t.Fatal(err)
			}
			if pipe.Placement() != tc.want || pipe.Chains() != tc.chains || pipe.Cores() != tc.cores {
				t.Fatalf("Auto placed %s with %d chains on %d cores, want %s with %d on %d",
					pipe.Placement(), pipe.Chains(), pipe.Cores(), tc.want, tc.chains, tc.cores)
			}
			if desc := pipe.Describe(); !strings.Contains(desc, tc.decided) {
				t.Errorf("Describe does not record %q:\n%s", tc.decided, desc)
			}
			if d := pipe.Snapshot().Decision; !strings.Contains(d, tc.decided) {
				t.Errorf("Snapshot.Decision %q does not record %q", d, tc.decided)
			}
			// The rule does not loosen an explicit placement: one that
			// would clone the Shared element is refused as before.
			if tc.want == Pipelined {
				if _, err := Load(tc.config, Options{Cores: tc.cores, Placement: Parallel}); err == nil ||
					!strings.Contains(err.Error(), "would clone shared-state elements [sh]") {
					t.Fatalf("explicit parallel: err %v, want the cloning gate's refusal", err)
				}
			}
			// The placed plan forwards.
			pkts := equivPackets(64)
			for _, p := range pkts {
				if !pipe.Push(0, p) {
					t.Fatal("input ring full")
				}
			}
			for i := 0; i < 1000 && pipe.Queued() > 0; i++ {
				pipe.Step()
			}
			if q := pipe.Queued(); q != 0 {
				t.Fatalf("%d packets still queued", q)
			}
			if got := pipe.Snapshot().TotalPackets(); got < uint64(len(pkts)) {
				t.Fatalf("plan moved %d packets, want at least %d", got, len(pkts))
			}
		})
	}
}

// TestReloadEquivalence is the hot-swap contract: a 4-core running
// pipeline reloaded mid-stream (twice) to the same program delivers
// the identical per-port counts as an undisturbed single-core
// reference, with zero packets lost. Under -race this is also the
// concurrency gate for the drain barrier: the feeder pushes from its
// own goroutine throughout both swaps.
func TestReloadEquivalence(t *testing.T) {
	const n = 8192
	table := equivTable(t)

	// Reference counts (same construction as TestLoadEquivalence).
	ref := newEquivTerminals()
	pipeRef, err := Load(branchyConfig, Options{Prebound: func(int) map[string]Element { return ref.prebound(table) }})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range equivPackets(n) {
		for !pipeRef.Push(0, p) {
			pipeRef.Step()
		}
		pipeRef.Step()
	}
	for pipeRef.Step() > 0 || pipeRef.Queued() > 0 {
	}
	want := ref.counts()
	if ref.total() != n {
		t.Fatalf("reference counts %v don't cover all %d packets", want, n)
	}

	var mu sync.Mutex
	var terms []*equivTerminals
	opts := Options{
		Cores:     4,
		Placement: Parallel,
		Prebound: func(chain int) map[string]Element {
			term := newEquivTerminals()
			mu.Lock()
			terms = append(terms, term)
			mu.Unlock()
			return term.prebound(table)
		},
	}
	pipe, err := Load(branchyConfig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Start(); err != nil {
		t.Fatal(err)
	}
	defer pipe.Stop()

	total := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		var s uint64
		for _, term := range terms {
			s += term.total()
		}
		return s
	}

	packets := equivPackets(n)
	deadline := time.Now().Add(30 * time.Second)
	fedDone := make(chan struct{})
	go func() {
		defer close(fedDone)
		for fed := 0; fed < n; {
			// Chains() tracks the live plan; Push rejects during a swap
			// and the feeder just retries — the normal backpressure path.
			if pipe.Push(fed%pipe.Chains(), packets[fed]) {
				fed++
			} else if time.Now().After(deadline) {
				t.Errorf("feed stalled at %d/%d", fed, n)
				return
			}
		}
	}()

	// Two mid-stream hot-swaps while the feeder runs.
	for g := 1; g <= 2; g++ {
		time.Sleep(3 * time.Millisecond)
		if err := pipe.Reload(branchyConfig, opts); err != nil {
			t.Fatal(err)
		}
		if got := pipe.Generation(); got != uint64(g) {
			t.Fatalf("generation %d after reload %d", got, g)
		}
	}
	<-fedDone

	for total() < n {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d before deadline", total(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if drops := pipe.Snapshot().Drops; drops != 0 {
		t.Errorf("%d drops across reloads, want 0 (zero-loss drain contract)", drops)
	}
	var got [4]uint64
	mu.Lock()
	for _, term := range terms {
		c := term.counts()
		for i := range got {
			got[i] += c[i]
		}
	}
	mu.Unlock()
	if got != want {
		t.Errorf("per-port counts across reloads = %v, want %v", got, want)
	}
}

// TestReloadStepMode proves the drain barrier works without a runner:
// a pipeline driven by Step reloads mid-stream, and every packet fed
// before and after the swap is delivered.
func TestReloadStepMode(t *testing.T) {
	const n = 2048
	table := equivTable(t)
	var terms []*equivTerminals
	opts := Options{
		Cores:     2,
		Placement: Pipelined,
		Prebound: func(chain int) map[string]Element {
			term := newEquivTerminals()
			terms = append(terms, term)
			return term.prebound(table)
		},
	}
	pipe, err := Load(branchyConfig, opts)
	if err != nil {
		t.Fatal(err)
	}
	packets := equivPackets(n)
	feed := func(lo, hi int) {
		for fed := lo; fed < hi; {
			for c := 0; c < pipe.Chains() && fed < hi; c++ {
				if pipe.Push(c, packets[fed]) {
					fed++
				}
			}
			pipe.Step()
		}
	}
	feed(0, n/2)
	// Packets are mid-flight in the handoff rings right now; the swap
	// must push them all the way out first.
	if err := pipe.Reload(branchyConfig, opts); err != nil {
		t.Fatal(err)
	}
	feed(n/2, n)
	for quiet := 0; quiet < 2; {
		if pipe.Step() == 0 && pipe.Queued() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	var total uint64
	for _, term := range terms {
		total += term.total()
	}
	if total != n {
		t.Fatalf("delivered %d of %d across a step-mode reload", total, n)
	}
	if drops := pipe.Snapshot().Drops; drops != 0 {
		t.Fatalf("%d drops", drops)
	}
}

// TestSnapshotUnifies covers the one-call observability surface: plan
// identity, per-core counters, ring depths, element counters, and the
// Delta rate view.
func TestSnapshotUnifies(t *testing.T) {
	const n = 512
	table := equivTable(t)
	var terms []*equivTerminals
	pipe, err := Load(branchyConfig, Options{
		Cores:     2,
		Placement: Pipelined,
		Prebound: func(chain int) map[string]Element {
			term := newEquivTerminals()
			terms = append(terms, term)
			return term.prebound(table)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	drive := func(lo, hi int) {
		packets := equivPackets(hi)
		for fed := lo; fed < hi; {
			if pipe.Push(0, packets[fed]) {
				fed++
			}
			pipe.Step()
		}
		for quiet := 0; quiet < 2; {
			if pipe.Step() == 0 && pipe.Queued() == 0 {
				quiet++
			}
		}
	}
	drive(0, n)

	snap := pipe.Snapshot()
	if snap.Plan != "pipelined" || snap.Generation != 0 || snap.Cores != 2 {
		t.Fatalf("snapshot identity wrong: %+v", snap)
	}
	if len(snap.CoreStats) != 2 {
		t.Fatalf("%d core stats, want 2", len(snap.CoreStats))
	}
	if snap.TotalPackets() == 0 {
		t.Fatal("no packets counted")
	}
	roles := map[string]int{}
	for _, r := range snap.Rings {
		roles[r.Role]++
		if r.Cap == 0 {
			t.Errorf("ring %+v has no capacity", r)
		}
	}
	if roles["input"] != 1 || roles["handoff"] != 1 {
		t.Fatalf("ring roles %v, want 1 input + 1 handoff", roles)
	}
	found := false
	for _, e := range snap.Elements {
		if e.Name == "good" && e.Class == "Counter" {
			found = true
			if e.Counters["packets"] == 0 {
				t.Errorf("element %q counted nothing: %v", e.Name, e.Counters)
			}
		}
	}
	if !found {
		t.Fatalf("element counters missing the 'good' Counter: %+v", snap.Elements)
	}

	// Delta: drive more traffic, subtract, and only the increment
	// remains.
	drive(n, 2*n)
	snap2 := pipe.Snapshot()
	d := snap2.Delta(snap)
	if got := d.TotalPackets(); got != snap2.TotalPackets()-snap.TotalPackets() {
		t.Errorf("Delta packets = %d, want %d", got, snap2.TotalPackets()-snap.TotalPackets())
	}

	// Delta across a generation boundary refuses to subtract.
	if err := pipe.Reload(branchyConfig, Options{Placement: Pipelined}); err != nil {
		t.Fatal(err)
	}
	snap3 := pipe.Snapshot()
	if d := snap3.Delta(snap2); d.Generation != 1 || d.TotalPackets() != snap3.TotalPackets() {
		t.Errorf("Delta across generations should return the new snapshot unchanged")
	}

	if pipe.Queued() != snap3.Queued {
		t.Error("Queued disagrees with Snapshot")
	}
}

// TestDOTGenerations covers the chain-addressable DOT export and its
// plan-identity header.
func TestDOTGenerations(t *testing.T) {
	table := equivTable(t)
	opts := Options{
		Cores:     2,
		Placement: Parallel,
		Prebound:  func(int) map[string]Element { return newEquivTerminals().prebound(table) },
	}
	pipe, err := Load(branchyConfig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dot := pipe.DOT(); !strings.Contains(dot, `label="parallel plan, gen 0, chain 0"`) {
		t.Errorf("zero-arg DOT header missing plan identity:\n%s", dot)
	}
	if dot := pipe.DOT(1); !strings.Contains(dot, "chain 1") {
		t.Errorf("DOT(1) not labeled for chain 1:\n%s", dot)
	}
	if pipe.DOT(99) != "" {
		t.Error("out-of-range chain should render nothing")
	}
	if err := pipe.Reload(branchyConfig, opts); err != nil {
		t.Fatal(err)
	}
	if dot := pipe.DOT(); !strings.Contains(dot, "gen 1") {
		t.Errorf("reloaded DOT header missing new generation:\n%s", dot)
	}
}
