package rss

import (
	"fmt"
	"net/netip"
	"testing"

	"routebricks/internal/pkt"
)

// Chain is mask-then-modulo: a RETA filled round-robin.
func TestChainIsRoundRobinTable(t *testing.T) {
	for chains := 1; chains <= 8; chains++ {
		t.Run(fmt.Sprintf("chains=%d", chains), func(t *testing.T) {
			for _, h := range []uint64{0, 1, 2, 3, 127, 128, 129, 255, 1000, 1<<32 + 5, ^uint64(0)} {
				if got, want := Chain(h, chains), int(h%128)%chains; got != want {
					t.Fatalf("Chain(%d, %d) = %d, want %d", h, chains, got, want)
				}
			}
		})
	}
}

// Every chain owns a share of the table's entries, differing by at
// most one between chains.
func TestStripeCoversAllChains(t *testing.T) {
	for chains := 1; chains <= 8; chains++ {
		owned := make([]int, chains)
		for b := uint64(0); b < Buckets; b++ {
			owned[Chain(b, chains)]++
		}
		for c, n := range owned {
			if n < Buckets/chains || n > Buckets/chains+1 {
				t.Fatalf("%d chains: chain %d owns %d of %d entries", chains, c, n, Buckets)
			}
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
	want := Chain(flowPacket(777).RSSHash(), 8)
	for i := 0; i < 50; i++ {
		if c := Chain(flowPacket(777).RSSHash(), 8); c != want {
			t.Fatalf("flow moved from chain %d to %d", want, c)
		}
	}
}

// Distinct flows spread across every chain, none badly underloaded.
func TestRSSSpreads(t *testing.T) {
	used := make(map[int]int)
	for i := 0; i < 2000; i++ {
		used[Chain(flowPacket(uint16(i)).RSSHash(), 8)]++
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
