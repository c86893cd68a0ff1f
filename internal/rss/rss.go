// Package rss is the software half of the NIC feature the paper leans
// on (§4.1: "a server with multiple queues per NIC"): receive-side
// scaling that hashes each flow to one queue per core.
//
// A NIC does it with a fixed indirection table (RETA) of Buckets
// entries: the low bits of the flow hash pick an entry, and the entry
// names the queue. The table is filled round-robin at start-up and
// never rewritten, so it is a pure function of (hash, chains), and
// Chain computes it without storing one. Every packet of a flow keeps
// landing on the same chain for as long as the chain count holds.
package rss

// Buckets is the indirection table's size: 128 entries, the size of a
// classic NIC RETA.
const Buckets = 128

// Chain maps a flow hash to its chain: the hash's low bits pick one of
// Buckets entries of a table filled round-robin over chains (entry b
// names chain b % chains). chains must be positive.
func Chain(hash uint64, chains int) int {
	return int(hash&(Buckets-1)) % chains
}
