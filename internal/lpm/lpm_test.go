package lpm

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func ip(s string) uint32 {
	b := netip.MustParseAddr(s).As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// engines returns one of each implementation, fresh.
func engines() map[string]Engine {
	return map[string]Engine{
		"trie":   NewTrie(),
		"dir248": NewDir248(),
	}
}

func TestEmptyTable(t *testing.T) {
	for name, e := range engines() {
		if got := e.Lookup(ip("8.8.8.8")); got != NoRoute {
			t.Errorf("%s: empty lookup = %d, want NoRoute", name, got)
		}
		if e.Len() != 0 {
			t.Errorf("%s: Len = %d, want 0", name, e.Len())
		}
	}
}

func TestBasicLongestMatch(t *testing.T) {
	routes := []Route{
		{pfx("0.0.0.0/0"), 1},
		{pfx("10.0.0.0/8"), 2},
		{pfx("10.1.0.0/16"), 3},
		{pfx("10.1.2.0/24"), 4},
		{pfx("10.1.2.128/25"), 5},
		{pfx("10.1.2.129/32"), 6},
	}
	cases := []struct {
		dst  string
		want int
	}{
		{"192.168.1.1", 1},
		{"10.200.0.1", 2},
		{"10.1.99.99", 3},
		{"10.1.2.1", 4},
		{"10.1.2.200", 5},
		{"10.1.2.129", 6},
		{"10.1.2.127", 4},
	}
	for name, e := range engines() {
		if err := Build(e, routes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Len() != len(routes) {
			t.Errorf("%s: Len = %d, want %d", name, e.Len(), len(routes))
		}
		for _, c := range cases {
			if got := e.Lookup(ip(c.dst)); got != c.want {
				t.Errorf("%s: Lookup(%s) = %d, want %d", name, c.dst, got, c.want)
			}
		}
	}
}

func TestNoDefaultRoute(t *testing.T) {
	for name, e := range engines() {
		if err := e.Insert(pfx("10.0.0.0/8"), 7); err != nil {
			t.Fatal(err)
		}
		if got := e.Lookup(ip("11.0.0.1")); got != NoRoute {
			t.Errorf("%s: uncovered lookup = %d, want NoRoute", name, got)
		}
	}
}

func TestReplaceRoute(t *testing.T) {
	for name, e := range engines() {
		must(t, e.Insert(pfx("10.0.0.0/8"), 1))
		must(t, e.Insert(pfx("10.0.0.0/8"), 9))
		if e.Len() != 1 {
			t.Errorf("%s: Len after replace = %d, want 1", name, e.Len())
		}
		if got := e.Lookup(ip("10.1.1.1")); got != 9 {
			t.Errorf("%s: replaced route lookup = %d, want 9", name, got)
		}
	}
}

func TestHostRoutes(t *testing.T) {
	for name, e := range engines() {
		must(t, e.Insert(pfx("1.2.3.4/32"), 5))
		if got := e.Lookup(ip("1.2.3.4")); got != 5 {
			t.Errorf("%s: /32 exact = %d, want 5", name, got)
		}
		if got := e.Lookup(ip("1.2.3.5")); got != NoRoute {
			t.Errorf("%s: /32 neighbor = %d, want NoRoute", name, got)
		}
	}
}

func TestUnnormalizedPrefix(t *testing.T) {
	// Host bits set in the prefix address must be masked.
	for name, e := range engines() {
		p := netip.PrefixFrom(netip.MustParseAddr("10.1.2.3"), 16)
		must(t, e.Insert(p, 3))
		if got := e.Lookup(ip("10.1.200.200")); got != 3 {
			t.Errorf("%s: unnormalized insert lookup = %d, want 3", name, got)
		}
	}
}

func TestRejectIPv6AndBadHop(t *testing.T) {
	for name, e := range engines() {
		if err := e.Insert(netip.MustParsePrefix("2001:db8::/32"), 1); err == nil {
			t.Errorf("%s: IPv6 insert accepted", name)
		}
		if err := e.Insert(pfx("10.0.0.0/8"), -1); err == nil {
			t.Errorf("%s: negative hop accepted", name)
		}
	}
}

func TestDir248BlockInheritance(t *testing.T) {
	// A /26 inside a /16: addresses in the same /24 but outside the /26
	// must fall back to the /16's hop via block inheritance.
	d := NewDir248()
	must(t, d.Insert(pfx("10.1.0.0/16"), 1))
	must(t, d.Insert(pfx("10.1.2.64/26"), 2))
	if got := d.Lookup(ip("10.1.2.65")); got != 2 {
		t.Fatalf("inside /26 = %d, want 2", got)
	}
	if got := d.Lookup(ip("10.1.2.1")); got != 1 {
		t.Fatalf("outside /26, same /24 = %d, want 1", got)
	}
	if got := d.Lookup(ip("10.1.3.1")); got != 1 {
		t.Fatalf("other /24 = %d, want 1", got)
	}
}

func TestDir248IncrementalInsertAfterLookup(t *testing.T) {
	d := NewDir248()
	must(t, d.Insert(pfx("10.0.0.0/8"), 1))
	if got := d.Lookup(ip("10.9.9.9")); got != 1 {
		t.Fatalf("first lookup = %d", got)
	}
	// Insert after a lookup forces a lazy rebuild.
	must(t, d.Insert(pfx("10.9.0.0/16"), 2))
	if got := d.Lookup(ip("10.9.9.9")); got != 2 {
		t.Fatalf("post-rebuild lookup = %d, want 2", got)
	}
}

func TestDir248TwoLongPrefixesSameBlock(t *testing.T) {
	d := NewDir248()
	must(t, d.Insert(pfx("10.1.2.0/30"), 1))
	must(t, d.Insert(pfx("10.1.2.128/25"), 2))
	must(t, d.Insert(pfx("10.1.2.130/31"), 3))
	checks := []struct {
		dst  string
		want int
	}{
		{"10.1.2.0", 1}, {"10.1.2.3", 1}, {"10.1.2.4", NoRoute},
		{"10.1.2.128", 2}, {"10.1.2.200", 2},
		{"10.1.2.130", 3}, {"10.1.2.131", 3}, {"10.1.2.132", 2},
	}
	for _, c := range checks {
		if got := d.Lookup(ip(c.dst)); got != c.want {
			t.Errorf("Lookup(%s) = %d, want %d", c.dst, got, c.want)
		}
	}
	if nb := len(d.tblLong); nb != 1 {
		t.Errorf("long blocks = %d, want 1", nb)
	}
}

func TestRandomTableProperties(t *testing.T) {
	routes := RandomTable(5000, 16, 1, true)
	if len(routes) != 5000 {
		t.Fatalf("generated %d routes", len(routes))
	}
	if routes[0].Prefix.Bits() != 0 {
		t.Fatal("first route is not the default route")
	}
	// Deterministic in seed.
	again := RandomTable(5000, 16, 1, true)
	for i := range routes {
		if routes[i] != again[i] {
			t.Fatalf("RandomTable not deterministic at %d", i)
		}
	}
	counts := map[int]int{}
	for _, r := range routes {
		counts[r.Prefix.Bits()]++
	}
	if counts[24] < 2000 {
		t.Errorf("/24 population = %d, want majority-ish", counts[24])
	}
}

// Cross-check: Dir248 agrees with the trie on every lookup over a random
// 20K-route table and random + adversarial (route-boundary) probes.
func TestDir248MatchesTrie(t *testing.T) {
	routes := RandomTable(20000, 64, 42, true)
	tr := NewTrie()
	d := NewDir248()
	must(t, Build(tr, routes))
	must(t, Build(d, routes))
	d.Freeze()

	rng := rand.New(rand.NewSource(99))
	probes := make([]uint32, 0, 60000)
	for i := 0; i < 30000; i++ {
		probes = append(probes, rng.Uint32())
	}
	for _, r := range routes[:10000] {
		a := r.Prefix.Addr().As4()
		base := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
		probes = append(probes, base, base+1, base-1)
	}
	for _, p := range probes {
		if got, want := d.Lookup(p), tr.Lookup(p); got != want {
			t.Fatalf("divergence at %d.%d.%d.%d: dir248=%d trie=%d",
				p>>24, p>>16&0xFF, p>>8&0xFF, p&0xFF, got, want)
		}
	}
}

// Property: for random small route sets, both engines agree everywhere.
func TestPropertyEnginesAgree(t *testing.T) {
	f := func(seed int64, probes []uint32) bool {
		routes := RandomTable(200, 8, seed, seed%2 == 0)
		tr := NewTrie()
		d := NewDir248()
		if Build(tr, routes) != nil || Build(d, routes) != nil {
			return false
		}
		for _, p := range probes {
			if d.Lookup(p) != tr.Lookup(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDir248MemoryFootprint(t *testing.T) {
	d := NewDir248()
	if got := d.MemoryFootprint(); got != 0 {
		t.Fatalf("empty footprint = %d, want 0 (no pages materialized)", got)
	}
	// One /25 materializes exactly one 2^16-entry page plus one long block.
	must(t, d.Insert(pfx("10.1.2.128/25"), 1))
	d.Freeze()
	if got, want := d.MemoryFootprint(), 4*tbl24PageSize+4*256; got != want {
		t.Fatalf("footprint after one long block = %d, want %d", got, want)
	}
	// A fully painted table costs the classic 64 MB of uint32s.
	must(t, d.Insert(pfx("0.0.0.0/0"), 2))
	d.Freeze()
	if got, want := d.MemoryFootprint(), 4*(1<<24)+4*256; got != want {
		t.Fatalf("full footprint = %d, want %d", got, want)
	}
}

// The paper's table size: 256K routes must load and answer.
func Test256KTable(t *testing.T) {
	if testing.Short() {
		t.Skip("256K route build in -short mode")
	}
	routes := RandomTable(256*1024, 16, 7, true)
	d := NewDir248()
	must(t, Build(d, routes))
	d.Freeze()
	if d.Len() != 256*1024 {
		t.Fatalf("Len = %d", d.Len())
	}
	rng := rand.New(rand.NewSource(3))
	hits := 0
	for i := 0; i < 100000; i++ {
		if d.Lookup(rng.Uint32()) != NoRoute {
			hits++
		}
	}
	// Default route present: everything must resolve.
	if hits != 100000 {
		t.Fatalf("only %d/100000 lookups resolved with a default route", hits)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDir248Lookup(b *testing.B) {
	routes := RandomTable(256*1024, 16, 7, true)
	d := NewDir248()
	if err := Build(d, routes); err != nil {
		b.Fatal(err)
	}
	d.Freeze()
	rng := rand.New(rand.NewSource(3))
	dsts := make([]uint32, 4096)
	for i := range dsts {
		dsts[i] = rng.Uint32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(dsts[i&4095])
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	routes := RandomTable(256*1024, 16, 7, true)
	tr := NewTrie()
	if err := Build(tr, routes); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	dsts := make([]uint32, 4096)
	for i := range dsts {
		dsts[i] = rng.Uint32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(dsts[i&4095])
	}
}

func BenchmarkDir248Build256K(b *testing.B) {
	routes := RandomTable(256*1024, 16, 7, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDir248()
		if err := Build(d, routes); err != nil {
			b.Fatal(err)
		}
		d.Freeze()
	}
}

// TestRebuildSweepEdges pins the one-sweep build against the Trie
// oracle on the shapes where a sweep can go wrong: a range that fills
// every page, ranges that end on or start at a page boundary, a nested
// prefix in its parent's last slot, a block inside a block, neighbours
// of equal length, and no routes at all. Each table is built both as a
// bare Dir248 and as a LiveTable's first commit, and probed at every
// route's edges, at every page boundary, and at random addresses.
func TestRebuildSweepEdges(t *testing.T) {
	cases := []struct {
		name   string
		routes []Route
	}{
		{"default alone", []Route{{pfx("0.0.0.0/0"), 1}}},
		{"page boundary", []Route{
			{pfx("0.0.0.0/7"), 1},
			{pfx("0.255.255.0/24"), 2}, // slot 65535, the last of page 0
			{pfx("1.0.0.0/24"), 3},     // slot 65536, the first of page 1
			{pfx("2.255.255.0/24"), 4}, // last slot of a page nothing else covers
			{pfx("3.0.0.0/9"), 5},
		}},
		{"/8 with a /24 in its last slot", []Route{
			{pfx("10.0.0.0/8"), 1},
			{pfx("10.255.255.0/24"), 2},
		}},
		{"/32 inside a /25", []Route{
			{pfx("10.1.0.0/16"), 1},
			{pfx("10.1.2.128/25"), 2},
			{pfx("10.1.2.200/32"), 3},
			{pfx("10.1.3.255/32"), 4}, // a block whose slot's leaf is the /16
		}},
		{"adjacent equal lengths", []Route{
			{pfx("10.1.0.0/16"), 1},
			{pfx("10.2.0.0/16"), 2},
			{pfx("10.3.0.0/16"), 3},
			{pfx("20.0.0.0/25"), 4},
			{pfx("20.0.0.128/25"), 5},
			{pfx("20.0.1.0/24"), 6},
			{pfx("20.0.2.0/24"), 7},
		}},
		{"empty table", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := NewTrie()
			d := NewDir248()
			must(t, Build(ref, tc.routes))
			must(t, Build(d, tc.routes))
			d.Freeze()
			lt, err := NewLiveTable(tc.routes...)
			must(t, err)

			var probes []uint32
			for _, r := range tc.routes {
				lo := ip(r.Prefix.Addr().String())
				hi := lo | ^(^uint32(0) << (32 - r.Prefix.Bits()))
				probes = append(probes, lo-1, lo, lo+1, hi-1, hi, hi+1)
			}
			for pi := uint32(0); pi < tbl24Pages; pi++ {
				probes = append(probes, pi<<24-1, pi<<24)
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 4096; i++ {
				probes = append(probes, rng.Uint32())
			}
			for _, dst := range probes {
				want := ref.Lookup(dst)
				if got := d.Lookup(dst); got != want {
					t.Fatalf("Dir248 lookup(%08x) = %d, trie says %d", dst, got, want)
				}
				if got := lt.Lookup(dst); got != want {
					t.Fatalf("LiveTable lookup(%08x) = %d, trie says %d", dst, got, want)
				}
			}
			if len(tc.routes) == 0 && d.MemoryFootprint() != 0 {
				t.Fatalf("empty table materialized %d bytes", d.MemoryFootprint())
			}
		})
	}
}
