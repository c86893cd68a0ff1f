package routebricks

import (
	"net/netip"
	"testing"

	"routebricks/internal/elements"
)

// liveFIBPipe loads the branchy program with the route table bound via
// Options.FIB — the live-FIB path — instead of a hand-built frozen
// Dir248 in Prebound. Step-driven for determinism.
func liveFIBPipe(t *testing.T) (*Pipeline, *equivTerminals, *RouteAdmin) {
	t.Helper()
	fib, err := NewFIB(Route{Prefix: netip.MustParsePrefix("10.0.0.0/16"), NextHop: 1})
	if err != nil {
		t.Fatal(err)
	}
	term := newEquivTerminals()
	pipe, err := Load(branchyConfig, Options{
		FIB: fib,
		Prebound: func(chain int) map[string]Element {
			// Terminals only: the `fib` name binds through Options.FIB.
			return map[string]Element{
				"out":      term.out,
				"badhdr":   term.badhdr,
				"badroute": term.badroute,
				"expired":  term.expired,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pipe, term, fib
}

// stepFeed pushes n packets and steps the pipeline dry.
func stepFeed(t *testing.T, pipe *Pipeline, n int) {
	t.Helper()
	packets := equivPackets(n)
	for fed := 0; fed < n; {
		if pipe.Push(fed%pipe.Chains(), packets[fed]) {
			fed++
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
}

// TestLiveFIBWithdrawReinstate is the withdraw-reinstate equivalence
// contract through routebricks.Load: a pipeline bound to a live FIB
// forwards, diverts everything to the route-miss port while the covering
// route is withdrawn, and returns to the exact original per-port counts
// once the route is reinstated — no reload, no restart, just FIB commits.
func TestLiveFIBWithdrawReinstate(t *testing.T) {
	const n = 1024
	pipe, term, fib := liveFIBPipe(t)
	admin := pipe.Routes()
	if admin != fib {
		t.Fatalf("Routes() = %p, want the Options.FIB handle %p", admin, fib)
	}
	if admin.Len() != 1 || admin.Generation() != 1 {
		t.Fatalf("seeded FIB: len=%d gen=%d", admin.Len(), admin.Generation())
	}

	stepFeed(t, pipe, n)
	base := term.counts() // [out, badhdr, badroute, expired]
	if base[0] == 0 || base[1] == 0 || base[2] == 0 || base[3] == 0 {
		t.Fatalf("workload no longer exercises every port: %v", base)
	}

	// Withdraw the only route: everything that clears the header check
	// now misses at the LPM stage.
	if err := admin.Withdraw(netip.MustParsePrefix("10.0.0.0/16")); err != nil {
		t.Fatal(err)
	}
	if admin.Len() != 0 || admin.Generation() != 2 {
		t.Fatalf("after withdraw: len=%d gen=%d", admin.Len(), admin.Generation())
	}
	stepFeed(t, pipe, n)
	mid := term.counts()
	if mid[0] != base[0] || mid[3] != base[3] {
		t.Fatalf("withdrawn FIB still routed packets: base=%v now=%v", base, mid)
	}
	if mid[1] != 2*base[1] {
		t.Fatalf("header-check diversions changed under withdraw: base=%v now=%v", base, mid)
	}
	wantMiss := base[2] + (n - base[1]) // everything past the header check misses
	if mid[2] != wantMiss {
		t.Fatalf("route-miss count = %d, want %d (base=%v now=%v)", mid[2], wantMiss, base, mid)
	}

	// Reinstate: the next identical interval must add exactly the base
	// per-port counts again.
	if err := admin.Add(netip.MustParsePrefix("10.0.0.0/16"), 1); err != nil {
		t.Fatal(err)
	}
	if admin.Generation() != 3 {
		t.Fatalf("after reinstate: gen=%d", admin.Generation())
	}
	stepFeed(t, pipe, n)
	final := term.counts()
	for i := range final {
		if final[i] != mid[i]+base[i] {
			t.Fatalf("reinstated interval diverged (port %d): base=%v mid=%v final=%v", i, base, mid, final)
		}
	}
}

// TestLiveFIBSnapshotAndReload checks Snapshot carries the FIB gauges
// and that the FIB handle (and its routes) survive a Reload that
// re-places the same program — the FIB is inherited like Prebound, so
// churn and plan swaps compose.
func TestLiveFIBSnapshotAndReload(t *testing.T) {
	pipe, _, fib := liveFIBPipe(t)
	s := pipe.Snapshot()
	if s.FIBGeneration != 1 || s.FIBRoutes != 1 {
		t.Fatalf("snapshot FIB gauges: gen=%d routes=%d", s.FIBGeneration, s.FIBRoutes)
	}

	gen, err := fib.Update([]Route{
		{Prefix: netip.MustParsePrefix("10.1.0.0/24"), NextHop: 2},
		{Prefix: netip.MustParsePrefix("10.2.0.0/24"), NextHop: 3},
	}, nil)
	if err != nil || gen != 2 {
		t.Fatalf("batch update: gen=%d err=%v", gen, err)
	}
	s = pipe.Snapshot()
	if s.FIBGeneration != 2 || s.FIBRoutes != 3 {
		t.Fatalf("snapshot after update: gen=%d routes=%d", s.FIBGeneration, s.FIBRoutes)
	}

	if err := pipe.Reload(pipe.Program(), Options{Placement: Pipelined, Cores: 2}); err != nil {
		t.Fatal(err)
	}
	if pipe.Routes() != fib {
		t.Fatal("Reload dropped the FIB handle")
	}
	stepFeed(t, pipe, 512)
	s = pipe.Snapshot()
	if s.FIBGeneration != 2 || s.FIBRoutes != 3 {
		t.Fatalf("FIB gauges reset across the reload: gen=%d routes=%d", s.FIBGeneration, s.FIBRoutes)
	}
	if list := fib.List(); len(list) != 3 {
		t.Fatalf("route listing after the reload: %v", list)
	}
	if hop := fib.Lookup(netip.MustParseAddr("10.1.0.9")); hop != 2 {
		t.Fatalf("Lookup = %d, want 2", hop)
	}
	if hop := fib.Lookup(netip.MustParseAddr("172.16.0.1")); hop != NoRoute {
		t.Fatalf("Lookup miss = %d, want NoRoute", hop)
	}
}

// TestLiveFIBPreboundPrecedence: a `fib` entry from Prebound wins over
// Options.FIB, preserving the old contract for hosts that bind their
// own engine.
func TestLiveFIBPreboundPrecedence(t *testing.T) {
	fib, err := NewFIB()
	if err != nil {
		t.Fatal(err)
	}
	table := equivTable(t)
	own := elements.NewLPMLookup(table)
	pipe, err := Load(branchyConfig, Options{
		FIB: fib,
		Prebound: func(chain int) map[string]Element {
			m := newEquivTerminals().prebound(table)
			m["fib"] = own
			return m
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// `rt :: LPMLookup(fib)` aliases the prebound fib instance as rt.
	if pipe.Element(0, "rt") != Element(own) {
		t.Fatal("Options.FIB overrode an explicitly prebound fib")
	}
}
