package lpm

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// TestLiveTableBasic covers the single-writer surface: insert, replace,
// withdraw, generation accounting, and no-op batches.
func TestLiveTableBasic(t *testing.T) {
	lt, err := NewLiveTable()
	if err != nil {
		t.Fatal(err)
	}
	if lt.Generation() != 0 || lt.Len() != 0 {
		t.Fatalf("empty table: gen=%d len=%d", lt.Generation(), lt.Len())
	}
	if got := lt.Lookup(0x0a000001); got != NoRoute {
		t.Fatalf("empty lookup = %d", got)
	}

	if err := lt.Insert(mustPrefix("10.0.0.0/16"), 3); err != nil {
		t.Fatal(err)
	}
	if lt.Generation() != 1 || lt.Len() != 1 {
		t.Fatalf("after insert: gen=%d len=%d", lt.Generation(), lt.Len())
	}
	if got := lt.Lookup(0x0a000001); got != 3 {
		t.Fatalf("lookup = %d, want 3", got)
	}

	// Replacing with the identical route is a no-op commit.
	if gen, err := lt.Update([]Route{{mustPrefix("10.0.0.0/16"), 3}}, nil); err != nil || gen != 1 {
		t.Fatalf("identical re-add: gen=%d err=%v", gen, err)
	}
	// Withdrawing an absent route is a no-op too.
	if gen, err := lt.Update(nil, []netip.Prefix{mustPrefix("192.168.0.0/24")}); err != nil || gen != 1 {
		t.Fatalf("absent withdraw: gen=%d err=%v", gen, err)
	}

	// A mixed batch is one commit.
	gen, err := lt.Update(
		[]Route{{mustPrefix("10.1.0.0/24"), 7}, {mustPrefix("10.1.0.128/25"), 9}},
		[]netip.Prefix{mustPrefix("10.0.0.0/16")},
	)
	if err != nil || gen != 2 {
		t.Fatalf("batch: gen=%d err=%v", gen, err)
	}
	if got := lt.Lookup(0x0a000001); got != NoRoute {
		t.Fatalf("withdrawn route still matches: %d", got)
	}
	if got := lt.Lookup(0x0a010001); got != 7 {
		t.Fatalf("/24 lookup = %d, want 7", got)
	}
	if got := lt.Lookup(0x0a0100f0); got != 9 {
		t.Fatalf("/25 lookup = %d, want 9", got)
	}
	if lt.Len() != 2 {
		t.Fatalf("len = %d, want 2", lt.Len())
	}

	// Invalid batches leave the table untouched.
	if _, err := lt.Update([]Route{{mustPrefix("10.2.0.0/16"), -5}}, nil); err == nil {
		t.Fatal("negative next hop accepted")
	}
	if lt.Generation() != 2 || lt.Len() != 2 {
		t.Fatalf("failed batch mutated table: gen=%d len=%d", lt.Generation(), lt.Len())
	}

	routes := lt.Routes()
	if len(routes) != 2 || routes[0].Prefix != mustPrefix("10.1.0.0/24") || routes[1].Prefix != mustPrefix("10.1.0.128/25") {
		t.Fatalf("Routes() = %v", routes)
	}
}

// TestLiveTableMatchesTrie churns a LiveTable and an independent Trie with
// the same deterministic add/withdraw stream and cross-checks every commit
// against both the trie and a from-scratch Dir248 rebuild — the
// correctness gate for the incremental patch path (leaf repaint, block
// copy-on-write, block creation, and block orphaning all occur at this
// size).
func TestLiveTableMatchesTrie(t *testing.T) {
	const rounds = 24
	rng := rand.New(rand.NewSource(11))
	pool := RandomTable(4096, 8, 17, true)

	lt, err := NewLiveTable()
	if err != nil {
		t.Fatal(err)
	}
	ref := NewTrie()
	installed := make(map[netip.Prefix]int)

	probe := func(round int) {
		// Deterministic probes: route boundaries and random addresses.
		full := NewDir248()
		for p, hop := range installed {
			if err := full.Insert(p, hop); err != nil {
				t.Fatal(err)
			}
		}
		full.Freeze()
		snap := lt.Load()
		prng := rand.New(rand.NewSource(int64(round)))
		for i := 0; i < 4096; i++ {
			dst := prng.Uint32()
			want := ref.Lookup(dst)
			if got := snap.Lookup(dst); got != want {
				t.Fatalf("round %d: live lookup(%08x) = %d, trie says %d", round, dst, got, want)
			}
			if got := full.Lookup(dst); got != want {
				t.Fatalf("round %d: rebuilt lookup(%08x) = %d, trie says %d", round, dst, got, want)
			}
		}
		for _, r := range pool {
			a4 := r.Prefix.Addr().As4()
			dst := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
			if got, want := snap.Lookup(dst), ref.Lookup(dst); got != want {
				t.Fatalf("round %d: live lookup(%v) = %d, trie says %d", round, r.Prefix, got, want)
			}
		}
		if lt.Len() != len(installed) {
			t.Fatalf("round %d: len=%d, want %d", round, lt.Len(), len(installed))
		}
	}

	for round := 0; round < rounds; round++ {
		var adds []Route
		var dels []netip.Prefix
		for i := 0; i < 64; i++ {
			r := pool[rng.Intn(len(pool))]
			if _, ok := installed[r.Prefix]; ok && rng.Intn(2) == 0 {
				dels = append(dels, r.Prefix)
				delete(installed, r.Prefix)
				ref.Remove(r.Prefix)
			} else {
				hop := rng.Intn(8)
				adds = append(adds, Route{r.Prefix, hop})
				installed[r.Prefix] = hop
				if err := ref.Insert(r.Prefix, hop); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := lt.Update(adds, dels); err != nil {
			t.Fatal(err)
		}
		probe(round)
	}
}

// TestLiveTableFullRebuildFallback forces the wide-prefix path (a /8
// covers 65536 tbl24 slots; a /0 covers all of them) past patchSlotLimit
// and checks the rebuilt snapshot agrees with the trie.
func TestLiveTableFullRebuildFallback(t *testing.T) {
	lt, err := NewLiveTable(RandomTable(2048, 8, 23, false)...)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewTrie()
	if err := Build(ref, RandomTable(2048, 8, 23, false)); err != nil {
		t.Fatal(err)
	}

	// Nine /8s = 9*65536 slots > patchSlotLimit: must take full rebuild.
	var wide []Route
	for i := 0; i < 9; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(16 + i), 0, 0, 0}), 8)
		wide = append(wide, Route{p, 5})
		if err := ref.Insert(p, 5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lt.Update(wide, nil); err != nil {
		t.Fatal(err)
	}
	snap := lt.Load()
	prng := rand.New(rand.NewSource(29))
	for i := 0; i < 1<<16; i++ {
		dst := prng.Uint32()
		if got, want := snap.Lookup(dst), ref.Lookup(dst); got != want {
			t.Fatalf("lookup(%08x) = %d, trie says %d", dst, got, want)
		}
	}
}

// TestTrieRemove exercises the new withdraw path on the reference engine,
// including pruning and nested prefixes.
func TestTrieRemove(t *testing.T) {
	tr := NewTrie()
	routes := []Route{
		{mustPrefix("10.0.0.0/8"), 1},
		{mustPrefix("10.1.0.0/16"), 2},
		{mustPrefix("10.1.2.0/24"), 3},
		{mustPrefix("10.1.2.128/25"), 4},
	}
	if err := Build(tr, routes); err != nil {
		t.Fatal(err)
	}
	if tr.Remove(mustPrefix("10.1.0.0/16")) != true {
		t.Fatal("remove of installed route reported false")
	}
	if tr.Remove(mustPrefix("10.1.0.0/16")) != false {
		t.Fatal("double remove reported true")
	}
	if tr.Remove(mustPrefix("172.16.0.0/12")) != false {
		t.Fatal("remove of absent route reported true")
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	// 10.1.9.9 fell back to the /8 after the /16 withdraw.
	if got := tr.Lookup(0x0a010909); got != 1 {
		t.Fatalf("lookup after remove = %d, want 1", got)
	}
	// The more-specific routes under the removed /16 survive.
	if got := tr.Lookup(0x0a010203); got != 3 {
		t.Fatalf("nested /24 lost: %d", got)
	}
	if got := tr.Lookup(0x0a0102ff); got != 4 {
		t.Fatalf("nested /25 lost: %d", got)
	}
	// Remove everything; the trie must go back to empty.
	for _, p := range []string{"10.0.0.0/8", "10.1.2.0/24", "10.1.2.128/25"} {
		if !tr.Remove(mustPrefix(p)) {
			t.Fatalf("remove %s failed", p)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d, want 0", tr.Len())
	}
	if tr.root.child[0] != nil || tr.root.child[1] != nil {
		t.Fatal("pruning left dangling branches")
	}
	if got := tr.Lookup(0x0a010203); got != NoRoute {
		t.Fatalf("lookup on emptied trie = %d", got)
	}
}

// TestLiveTableConcurrentChurn is the -race Lookup-during-swap stress:
// reader goroutines hammer Lookup while a writer churns routes whose next
// hop encodes the generation that installed them. Every lookup must
// return either NoRoute (before the covering route's first commit — never
// after) or a hop some commit actually published; within one Load()
// snapshot every probe must agree, proving no reader ever sees a
// half-painted table.
func TestLiveTableConcurrentChurn(t *testing.T) {
	lt, err := NewLiveTable()
	if err != nil {
		t.Fatal(err)
	}
	// The witness prefix: repainted every commit with hop = commit index.
	witness := mustPrefix("10.0.0.0/16")
	const witnessLo, witnessHi = uint32(0x0a000000), uint32(0x0a00ffff)

	var commits atomic.Int64 // highest hop any commit installed
	commits.Store(-1)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	const readers = 2
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// One snapshot per "batch": all probes inside it must agree.
				// floor is read before the snapshot: any commit counted in
				// it was published (cur.Store) before our Load, so the
				// snapshot must carry a hop at least that new.
				floor := commits.Load()
				snap := lt.Load()
				first := snap.Lookup(witnessLo + rng.Uint32()%(witnessHi-witnessLo))
				for i := 0; i < 64; i++ {
					dst := witnessLo + rng.Uint32()%(witnessHi-witnessLo)
					got := snap.Lookup(dst)
					if got != first {
						t.Errorf("snapshot disagrees with itself: %d then %d — partial table", first, got)
						return
					}
				}
				if first == NoRoute {
					if floor >= 0 {
						t.Errorf("NoRoute observed after commit %d published", floor)
						return
					}
					continue
				}
				if int64(first) < floor {
					t.Errorf("stale hop %d: commit %d was already published before the load", first, floor)
					return
				}
			}
		}(int64(100 + r))
	}

	// Writer: each commit bumps the witness hop and churns background
	// routes to keep the patch path honest.
	noise := RandomTable(512, 8, 41, false)
	// Keep noise clear of the witness /16 so it can't shadow it.
	kept := noise[:0]
	for _, r := range noise {
		a4 := r.Prefix.Addr().As4()
		if a4[0] == 10 && a4[1] == 0 {
			continue
		}
		kept = append(kept, r)
	}
	noise = kept
	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 96; c++ {
		adds := []Route{{witness, c}}
		var dels []netip.Prefix
		for i := 0; i < 8; i++ {
			r := noise[rng.Intn(len(noise))]
			if rng.Intn(2) == 0 {
				adds = append(adds, Route{r.Prefix, rng.Intn(8)})
			} else {
				dels = append(dels, r.Prefix)
			}
		}
		gen, err := lt.Update(adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		if gen == 0 {
			t.Fatal("effective commit kept generation 0")
		}
		commits.Store(int64(c))
	}
	close(stop)
	wg.Wait()
}

// TestLiveTableGenerationMonotonic checks generations from a concurrent
// observer never go backwards and land exactly at the commit count.
func TestLiveTableGenerationMonotonic(t *testing.T) {
	lt, err := NewLiveTable()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var bad atomic.Bool
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := lt.Generation()
			if g < last {
				bad.Store(true)
				return
			}
			last = g
		}
	}()
	const commits = 100
	for c := 0; c < commits; c++ {
		p := mustPrefix(fmt.Sprintf("10.%d.%d.0/24", c/256, c%256))
		if _, err := lt.Update([]Route{{p, c % 8}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if bad.Load() {
		t.Fatal("generation went backwards")
	}
	if g := lt.Generation(); g != commits {
		t.Fatalf("generation = %d, want %d", g, commits)
	}
}

// TestLiveTablePageSharing checks the chunked-tbl24 commit contract: a
// one-route commit clones only the 2^16-entry page its slots live in and
// shares every other page with the previous snapshot by pointer, and the
// previous snapshot keeps answering from its own (unmutated) pages.
func TestLiveTablePageSharing(t *testing.T) {
	// Routes spread across four pages: top byte 10, 11, 20, 172.
	lt, err := NewLiveTable(
		Route{mustPrefix("10.1.0.0/16"), 1},
		Route{mustPrefix("11.2.0.0/16"), 2},
		Route{mustPrefix("20.3.0.0/16"), 3},
		Route{mustPrefix("172.16.0.0/16"), 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	before := lt.Load()

	// One /24 change inside page 10.
	if err := lt.Insert(mustPrefix("10.1.2.0/24"), 9); err != nil {
		t.Fatal(err)
	}
	after := lt.Load()
	if before == after {
		t.Fatal("commit did not publish a new snapshot")
	}
	clonedPages := 0
	for pi := range after.tbl24 {
		op, np := before.tbl24[pi], after.tbl24[pi]
		if op == nil && np == nil {
			continue
		}
		if &op[0] != &np[0] {
			clonedPages++
			if pi != 10 {
				t.Errorf("page %d cloned; only page 10 was touched", pi)
			}
		}
	}
	if clonedPages != 1 {
		t.Fatalf("cloned %d pages, want exactly 1", clonedPages)
	}
	// Old snapshot still answers pre-commit state.
	if got := before.Lookup(ip("10.1.2.1")); got != 1 {
		t.Fatalf("old snapshot mutated: lookup = %d, want 1", got)
	}
	if got := after.Lookup(ip("10.1.2.1")); got != 9 {
		t.Fatalf("new snapshot: lookup = %d, want 9", got)
	}
	// Untouched address space never materializes pages.
	if before.tbl24[200] != nil || after.tbl24[200] != nil {
		t.Fatal("empty address space materialized a page")
	}
}

// TestLiveTableFootprintSparse checks that footprint scales with
// materialized pages, not the full 2^24 slots: four /16s in two pages
// cost two pages, not 64 MB.
func TestLiveTableFootprintSparse(t *testing.T) {
	lt, err := NewLiveTable(
		Route{mustPrefix("10.0.0.0/16"), 1},
		Route{mustPrefix("10.9.0.0/16"), 2},
		Route{mustPrefix("44.0.0.0/16"), 3},
		Route{mustPrefix("44.7.0.0/16"), 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lt.Load().MemoryFootprint(), 2*4*tbl24PageSize; got != want {
		t.Fatalf("footprint = %d, want %d (two pages)", got, want)
	}
}

// BenchmarkLiveCommit times one steady-state commit on a paper-scale
// table: a batch of 256 /24 routes, added and withdrawn on alternate
// operations, onto 2^20 random routes plus a default.
func BenchmarkLiveCommit(b *testing.B) {
	lt, err := NewLiveTable(RandomTable(1<<20, 8, 1, true)...)
	if err != nil {
		b.Fatal(err)
	}
	adds := make([]Route, 256)
	dels := make([]netip.Prefix, 256)
	for i := range adds {
		adds[i] = Route{netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i), 0}), 24), i % 8}
		dels[i] = adds[i].Prefix
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			_, err = lt.Update(adds, nil)
		} else {
			_, err = lt.Update(nil, dels)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzLiveTable drives a LiveTable through a fuzzed sequence of commits
// and checks every snapshot against the Trie oracle and against a
// from-scratch rebuild, at the edges of every changed prefix and at
// random addresses. The input decodes six bytes per change:
//
//	ctl | addr (4 bytes, big-endian) | length
//
// ctl bit 7 withdraws instead of adding, bits 5 and 6 both set close the
// batch after this change, and the low three bits are the next hop. A
// length byte up to 32 is the prefix length; a larger one maps to
// /16–/32, so that prefixes shorter than /16, which repaint a large share
// of the table in every rebuild, stay rare in random input.
func FuzzLiveTable(f *testing.F) {
	op := func(withdraw, end bool, hop byte, p string) []byte {
		pr := mustPrefix(p)
		a := pr.Addr().As4()
		ctl := hop & 7
		if withdraw {
			ctl |= 0x80
		}
		if end {
			ctl |= 0x60
		}
		return []byte{ctl, a[0], a[1], a[2], a[3], byte(pr.Bits())}
	}
	seq := func(ops ...[]byte) []byte {
		var b []byte
		for _, o := range ops {
			b = append(b, o...)
		}
		return b
	}
	f.Add(seq(
		op(false, false, 1, "10.0.0.0/8"),
		op(false, true, 2, "10.255.255.0/24"),
		op(false, false, 3, "10.1.2.128/25"),
		op(false, true, 4, "10.1.2.200/32"),
		op(true, true, 0, "10.0.0.0/8"),
		op(true, false, 0, "10.1.2.128/25"),
		op(false, true, 5, "10.1.2.0/24"),
	))
	f.Add(seq(
		op(false, true, 1, "0.0.0.0/0"),
		op(false, false, 2, "0.255.255.0/24"),
		op(false, true, 3, "1.0.0.0/24"),
		op(true, true, 0, "1.0.0.0/24"), // the patched slot falls back to the /0
		op(true, true, 0, "0.0.0.0/0"),
		op(false, true, 6, "0.255.255.255/32"),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 32 // bounds the cost of one input
		if len(data) > 6*maxOps {
			data = data[:6*maxOps]
		}
		lt, err := NewLiveTable()
		if err != nil {
			t.Fatal(err)
		}
		ref := NewTrie()
		installed := make(map[netip.Prefix]int)
		var adds []Route
		var dels []netip.Prefix
		var probes []uint32
		for i := 0; i+6 <= len(data); i += 6 {
			ctl := data[i]
			bits := int(data[i+5])
			if bits > 32 {
				bits = 16 + bits%17
			}
			a4 := [4]byte{data[i+1], data[i+2], data[i+3], data[i+4]}
			p := netip.PrefixFrom(netip.AddrFrom4(a4), bits).Masked()
			if ctl&0x80 != 0 {
				dels = append(dels, p)
			} else {
				adds = append(adds, Route{p, int(ctl & 7)})
			}
			lo := ip(p.Addr().String())
			hi := lo | ^(^uint32(0) << (32 - p.Bits()))
			probes = append(probes, lo-1, lo, hi, hi+1)
			if ctl&0x60 != 0x60 && i+12 <= len(data) {
				continue
			}

			// Commit the batch and mirror it in the oracles: adds, then
			// withdraws, the order Update applies them in.
			if _, err := lt.Update(adds, dels); err != nil {
				t.Fatal(err)
			}
			for _, r := range adds {
				installed[r.Prefix] = r.NextHop
				if err := ref.Insert(r.Prefix, r.NextHop); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range dels {
				delete(installed, p)
				ref.Remove(p)
			}
			adds, dels = adds[:0], dels[:0]

			full := NewDir248()
			for p, hop := range installed {
				if err := full.Insert(p, hop); err != nil {
					t.Fatal(err)
				}
			}
			full.Freeze()
			snap := lt.Load()
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 256; j++ {
				probes = append(probes, rng.Uint32())
			}
			for _, dst := range probes {
				want := ref.Lookup(dst)
				if got := snap.Lookup(dst); got != want {
					t.Fatalf("after change %d: live lookup(%08x) = %d, trie says %d", i/6, dst, got, want)
				}
				if got := full.Lookup(dst); got != want {
					t.Fatalf("after change %d: rebuilt lookup(%08x) = %d, trie says %d", i/6, dst, got, want)
				}
			}
			if lt.Len() != len(installed) || lt.Len() != ref.Len() {
				t.Fatalf("after change %d: len %d, installed %d, trie %d", i/6, lt.Len(), len(installed), ref.Len())
			}
		}
	})
}
