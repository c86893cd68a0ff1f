package rss

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"routebricks/internal/pkt"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(100, 4); err == nil {
		t.Fatalf("accepted non-power-of-two bucket count")
	}
	if _, err := New(128, 0); err == nil {
		t.Fatalf("accepted zero chains")
	}
	tbl, err := New(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Buckets() != DefaultBuckets || tbl.Chains() != 3 {
		t.Fatalf("defaults wrong: %d buckets, %d chains", tbl.Buckets(), tbl.Chains())
	}
}

func TestStripeCoversAllChains(t *testing.T) {
	tbl, _ := New(16, 4)
	seen := make(map[int]int)
	for _, c := range tbl.Assignments() {
		seen[c]++
	}
	for c := 0; c < 4; c++ {
		if seen[c] != 4 {
			t.Fatalf("chain %d owns %d buckets, want 4", c, seen[c])
		}
	}
	// Steer respects the assignment and masks the hash.
	for h := uint64(0); h < 64; h++ {
		b, c := tbl.Steer(h)
		if b != int(h%16) || c != tbl.Assignments()[b] {
			t.Fatalf("Steer(%d) = (%d,%d)", h, b, c)
		}
	}
}

// flowPacket builds a 64 B packet of flow 10.0.0.1:sport → 10.0.0.9:80.
func flowPacket(sport uint16) *pkt.Packet {
	return pkt.New(64, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.9"), sport, 80)
}

// Steering on the packet's RSS hash is flow-sticky: every packet of one
// flow lands on one chain.
func TestRSSFlowAffinity(t *testing.T) {
	tbl, _ := New(0, 8)
	_, want := tbl.Steer(flowPacket(777).RSSHash())
	for i := 0; i < 50; i++ {
		if _, c := tbl.Steer(flowPacket(777).RSSHash()); c != want {
			t.Fatalf("flow moved from chain %d to %d", want, c)
		}
	}
}

// Distinct flows spread across every chain, none badly underloaded.
func TestRSSSpreads(t *testing.T) {
	tbl, _ := New(0, 8)
	used := make(map[int]int)
	for i := 0; i < 2000; i++ {
		_, c := tbl.Steer(flowPacket(uint16(i)).RSSHash())
		used[c]++
	}
	if len(used) != 8 {
		t.Fatalf("flows hit %d/8 chains", len(used))
	}
	for c, n := range used {
		if n < 2000/8/3 {
			t.Errorf("chain %d badly underloaded: %d", c, n)
		}
	}
}

func TestApplyAndStaleRejection(t *testing.T) {
	tbl, _ := New(8, 2)
	if err := tbl.Apply([]Move{{Bucket: 0, From: 0, To: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, c := tbl.Steer(0); c != 1 {
		t.Fatalf("bucket 0 still on chain %d", c)
	}
	if tbl.Generation() != 1 || tbl.Steers() != 1 || tbl.Moved() != 1 {
		t.Fatalf("counters: gen=%d steers=%d moved=%d", tbl.Generation(), tbl.Steers(), tbl.Moved())
	}
	// Stale From: the whole batch must be rejected, including valid moves.
	err := tbl.Apply([]Move{{Bucket: 1, From: 1, To: 0}, {Bucket: 0, From: 0, To: 1}})
	if err == nil {
		t.Fatalf("accepted a stale move")
	}
	if _, c := tbl.Steer(1); c != 1 {
		t.Fatalf("rejected batch half-applied: bucket 1 moved to %d", c)
	}
	if err := tbl.Apply([]Move{{Bucket: 2, From: 0, To: 5}}); err == nil {
		t.Fatalf("accepted an out-of-range target chain")
	}
	if err := tbl.Apply(nil); err != nil {
		t.Fatalf("empty batch errored: %v", err)
	}
	if tbl.Steers() != 1 {
		t.Fatalf("empty batch counted as a steer event")
	}
}

func TestRestripeKeepsCounts(t *testing.T) {
	tbl, _ := New(8, 2)
	tbl.Tick(3)
	tbl.Tick(3)
	tbl.Apply([]Move{{Bucket: 0, From: 0, To: 1}})
	if err := tbl.Restripe(4); err != nil {
		t.Fatal(err)
	}
	if tbl.Chains() != 4 {
		t.Fatalf("chains = %d after restripe", tbl.Chains())
	}
	if _, c := tbl.Steer(0); c != 0 {
		t.Fatalf("restripe kept old steering: bucket 0 on %d", c)
	}
	if got := tbl.Counts()[3]; got != 2 {
		t.Fatalf("restripe lost bucket counts: %d", got)
	}
}

// Writers publish whole views; readers never see a torn table. Run
// under -race to make the claim mean something.
func TestConcurrentSteerAndApply(t *testing.T) {
	tbl, _ := New(32, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := uint64(0); ; h++ {
				select {
				case <-stop:
					return
				default:
				}
				b, c := tbl.Steer(h)
				if c < 0 || c >= 4 {
					panic("torn chain index")
				}
				tbl.Tick(b)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		a := tbl.Assignments()
		b := i % 32
		tbl.Apply([]Move{{Bucket: b, From: a[b], To: (a[b] + 1) % 4}})
	}
	close(stop)
	wg.Wait()
	if tbl.Steers() != 200 {
		t.Fatalf("steers = %d", tbl.Steers())
	}
}

func TestPlanMovesFlattensSkew(t *testing.T) {
	// All load on chain 0's buckets: 4 chains, 16 buckets.
	assign := make([]int, 16)
	load := make([]uint64, 16)
	for b := range assign {
		assign[b] = b % 4
	}
	// Chain 0 owns buckets 0,4,8,12 — pile the load there.
	load[0], load[4], load[8], load[12] = 400, 300, 200, 100
	moves := PlanMoves(assign, load, 4, 0)
	if len(moves) == 0 {
		t.Fatalf("no moves planned for full skew")
	}
	after := append([]int(nil), assign...)
	seen := make(map[int]bool)
	for _, m := range moves {
		if seen[m.Bucket] {
			t.Fatalf("bucket %d moved twice (flap)", m.Bucket)
		}
		seen[m.Bucket] = true
		if after[m.Bucket] != m.From {
			t.Fatalf("move %v does not match working state", m)
		}
		after[m.Bucket] = m.To
	}
	if got, want := Imbalance(after, load, 4), Imbalance(assign, load, 4); got >= want {
		t.Fatalf("imbalance did not improve: %.2f -> %.2f", want, got)
	}
	// Deterministic: same inputs, same plan.
	again := PlanMoves(assign, load, 4, 0)
	if len(again) != len(moves) {
		t.Fatalf("plan not deterministic: %d vs %d moves", len(again), len(moves))
	}
	for i := range moves {
		if moves[i] != again[i] {
			t.Fatalf("plan not deterministic at %d: %v vs %v", i, moves[i], again[i])
		}
	}
}

func TestPlanMovesNeverWorsens(t *testing.T) {
	// One huge bucket: moving it would just swap which chain is hot,
	// so the planner must leave it alone.
	assign := []int{0, 1}
	load := []uint64{1000, 10}
	if moves := PlanMoves(assign, load, 2, 0); len(moves) != 0 {
		t.Fatalf("planned %v for an unfixable single-bucket skew", moves)
	}
	// Balanced load: nothing to do.
	if moves := PlanMoves([]int{0, 1, 0, 1}, []uint64{5, 5, 5, 5}, 2, 0); len(moves) != 0 {
		t.Fatalf("planned %v for balanced load", moves)
	}
	// Single chain: steering has no lever.
	if moves := PlanMoves([]int{0, 0}, []uint64{9, 1}, 1, 0); moves != nil {
		t.Fatalf("planned %v for one chain", moves)
	}
}

func TestPlanMovesRespectsCap(t *testing.T) {
	assign := make([]int, 8)
	load := make([]uint64, 8)
	for b := range load {
		load[b] = uint64(10 + b)
	}
	moves := PlanMoves(assign, load, 4, 2)
	if len(moves) > 2 {
		t.Fatalf("cap ignored: %d moves", len(moves))
	}
}

// TestPlanMovesGolden pins the re-steer decisions PlanMoves makes over
// the default table geometry with the controller's move cap, for a
// flat load and for eight elephant buckets all owned by chain 0. The
// planner is a pure function, so a policy change that moves a bucket
// differently must update this table.
func TestPlanMovesGolden(t *testing.T) {
	const maxMoves = 8
	hotChain0 := func(chains int) []uint64 {
		load := make([]uint64, DefaultBuckets)
		for b := range load {
			load[b] = 10
		}
		for i := 0; i < 8; i++ {
			load[i*chains] = 1000
		}
		return load
	}
	uniform := func(int) []uint64 {
		load := make([]uint64, DefaultBuckets)
		for b := range load {
			load[b] = 100
		}
		return load
	}
	cases := []struct {
		name      string
		chains    int
		load      func(chains int) []uint64
		moves     []Move
		imbalance float64 // max/mean chain load after the moves apply
	}{
		{"uniform", 2, uniform, nil, 1},
		{"uniform", 4, uniform, nil, 1},
		{"uniform", 8, uniform, nil, 1},
		{"hot-chain0", 2, hotChain0, []Move{
			{0, 0, 1}, {2, 0, 1}, {4, 0, 1}, {6, 0, 1},
			{1, 1, 0}, {3, 1, 0}, {5, 1, 0}, {7, 1, 0},
		}, 1},
		{"hot-chain0", 4, hotChain0, []Move{
			{0, 0, 1}, {4, 0, 2}, {8, 0, 3}, {12, 0, 1},
			{16, 0, 2}, {20, 0, 3}, {1, 1, 0}, {2, 2, 0},
		}, 1.008695652173913},
		{"hot-chain0", 8, hotChain0, []Move{
			{0, 0, 1}, {8, 0, 2}, {16, 0, 3}, {24, 0, 4},
			{32, 0, 5}, {40, 0, 6}, {48, 0, 7}, {1, 1, 0},
		}, 1.008695652173913},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/chains=%d", tc.name, tc.chains), func(t *testing.T) {
			assign := make([]int, DefaultBuckets)
			for b := range assign {
				assign[b] = b % tc.chains
			}
			load := tc.load(tc.chains)
			moves := PlanMoves(assign, load, tc.chains, maxMoves)
			if !slices.Equal(moves, tc.moves) {
				t.Fatalf("moves = %v\nwant    %v", moves, tc.moves)
			}
			for _, m := range moves {
				assign[m.Bucket] = m.To
			}
			if got := Imbalance(assign, load, tc.chains); got != tc.imbalance {
				t.Errorf("imbalance after = %v, want %v", got, tc.imbalance)
			}
		})
	}
}
