// Package lpm implements IPv4 longest-prefix-match route lookup.
//
// The lookup engine is Dir248: the DIR-24-8-BASIC scheme of Gupta, Lin
// and McKeown ("Routing Lookups in Hardware at Memory Access Speeds",
// INFOCOM 1998) — the "D-lookup algorithm" the RouteBricks paper uses via
// the Click distribution for its IP-routing workload (§5.1). One memory
// access for prefixes ≤ /24, two for longer.
//
// Trie, a plain binary trie, is the oracle: slower but obviously correct.
// The test suite checks Dir248 and LiveTable against it on random and
// fuzzed route tables, and the LPM ablation measures it as the baseline
// the compressed scheme replaces. No forwarding path uses it.
//
// A bare Dir248 is built once and then read by many cores concurrently,
// matching the paper's workload (forwarding planes rebuild rarely, look
// up millions of times per second); its mutating methods must not race
// with Lookup. For live route churn — production routers eat continuous
// BGP-scale updates — wrap Dir248 in a LiveTable: an RCU-style generation
// pointer whose writers build complete replacement snapshots off to the
// side and publish them atomically, so inserts and withdraws never stall
// a forwarding core and no Lookup ever observes a partially built table.
// Readers hold a snapshot (Load) across a batch of lookups and pay one
// atomic read per batch, not per packet.
package lpm

import (
	"fmt"
	"math/rand"
	"net/netip"
)

// NoRoute is returned by Lookup when no prefix covers the address and the
// table holds no default route.
const NoRoute = -1

// Engine is a longest-prefix-match lookup structure. Lookup returns the
// next-hop index installed with the most specific covering prefix, or
// NoRoute.
type Engine interface {
	// Insert adds (or replaces) a route. prefix is given as address+length.
	Insert(p netip.Prefix, nextHop int) error
	// Lookup returns the next hop for a destination address.
	Lookup(dst uint32) int
	// Len reports the number of installed prefixes.
	Len() int
}

// Route pairs a prefix with a next-hop index, for bulk loading.
type Route struct {
	Prefix  netip.Prefix
	NextHop int
}

func validate(p netip.Prefix, nextHop int) (addr uint32, bits int, err error) {
	if !p.Addr().Is4() {
		return 0, 0, fmt.Errorf("lpm: prefix %v is not IPv4", p)
	}
	if nextHop < 0 || nextHop > 0x7FFFFF {
		return 0, 0, fmt.Errorf("lpm: next hop %d out of range", nextHop)
	}
	b := p.Addr().As4()
	addr = uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	bits = p.Bits()
	// Mask off host bits so callers can pass unnormalized prefixes.
	if bits < 32 {
		addr &= ^uint32(0) << (32 - bits)
	}
	return addr, bits, nil
}

// RandomTable generates n routes with the prefix-length mix typical of a
// 2009 DFZ table (the paper uses a 256K-entry table): mostly /24s, a large
// /16–/23 population, a few short prefixes, plus a default route when
// withDefault is set. Next hops cycle through nextHops values. The result
// is deterministic in seed.
func RandomTable(n int, nextHops int, seed int64, withDefault bool) []Route {
	rng := rand.New(rand.NewSource(seed))
	routes := make([]Route, 0, n+1)
	seen := make(map[uint64]bool, n)
	if withDefault {
		routes = append(routes, Route{netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0), 0})
	}
	for len(routes) < n {
		var bits int
		switch r := rng.Float64(); {
		case r < 0.55:
			bits = 24
		case r < 0.80:
			bits = 17 + rng.Intn(7) // /17../23
		case r < 0.90:
			bits = 16
		case r < 0.97:
			bits = 25 + rng.Intn(8) // /25../32
		default:
			bits = 8 + rng.Intn(8) // /8../15
		}
		addr := rng.Uint32()
		if bits < 32 {
			addr &= ^uint32(0) << (32 - bits)
		}
		key := uint64(addr)<<6 | uint64(bits)
		if seen[key] {
			continue
		}
		seen[key] = true
		a4 := [4]byte{byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)}
		routes = append(routes, Route{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4(a4), bits),
			NextHop: rng.Intn(nextHops),
		})
	}
	return routes
}

// Build loads routes into engine, failing fast on the first error.
func Build(e Engine, routes []Route) error {
	for _, r := range routes {
		if err := e.Insert(r.Prefix, r.NextHop); err != nil {
			return err
		}
	}
	return nil
}
