package lpm

import (
	"fmt"
	"net/netip"
	"slices"
)

// Dir248 implements DIR-24-8-BASIC (Gupta/Lin/McKeown 1998): a 2^24-entry
// first-level table indexed by the top 24 address bits, spilling prefixes
// longer than /24 into 256-entry second-level blocks. Lookups take one
// array read for ≤/24 routes and two for longer ones — the property that
// made the scheme attractive at memory-access speeds, and the reason the
// RouteBricks IP-routing workload stresses cache locality with random
// destinations (§5.1).
//
// tbl24 entry encoding (32 bits):
//
//	bit 31       — 0: bits 0..30 are a next-hop value (offset by 1, 0 = empty)
//	               1: bits 0..30 index a tblLong block
//
// The first level is chunked: 2^8 pages of 2^16 entries each, indexed by
// the top 8 address bits. A nil page reads as all-empty, so sparse tables
// cost nothing for address space they don't cover, and LiveTable commits
// share every untouched page between generations instead of cloning the
// whole 64 MB array (copy-on-write at page granularity).
//
// Construction: one sweep over the routes sorted by address, then
// length, writes each covered tbl24 slot once with its longest ≤/24
// match; routes longer than /24 then paint their blocks (rebuildFrom).
// Insert after Freeze rebuilds lazily.
type Dir248 struct {
	tbl24   [][]uint32 // tbl24Pages pages × tbl24PageSize entries; nil = empty
	tblLong [][]uint32 // each block has 256 entries, same value encoding as leaves
	routes  map[prefixKey]int
	dirty   bool
	n       int // route count for snapshots built without a routes map
}

type prefixKey struct {
	addr uint32
	bits int8
}

const (
	dir248LongFlag = uint32(1) << 31

	// tbl24 chunking: page index = slot >> tbl24PageBits (the address's
	// top 8 bits), offset = slot & tbl24PageMask.
	tbl24PageBits = 16
	tbl24PageSize = 1 << tbl24PageBits
	tbl24Pages    = 1 << (24 - tbl24PageBits)
	tbl24PageMask = tbl24PageSize - 1
)

// NewDir248 returns an empty DIR-24-8 table. Pages of the first-level
// table are allocated as routes paint them (a full table costs the same
// 64 MB of uint32s the original hardware scheme budgets).
func NewDir248() *Dir248 {
	return &Dir248{
		tbl24:  make([][]uint32, tbl24Pages),
		routes: make(map[prefixKey]int),
	}
}

// newDir248Snap allocates the page-pointer array only — the skeleton
// LiveTable commits and rebuilds fill in.
func newDir248Snap() *Dir248 {
	return &Dir248{tbl24: make([][]uint32, tbl24Pages)}
}

// slot24 reads one tbl24 slot; a nil page is all-empty.
func (d *Dir248) slot24(slot uint32) uint32 {
	pg := d.tbl24[slot>>tbl24PageBits]
	if pg == nil {
		return 0
	}
	return pg[slot&tbl24PageMask]
}

// setSlot24 writes one tbl24 slot, materializing its page on first write.
func (d *Dir248) setSlot24(slot, v uint32) {
	pg := d.tbl24[slot>>tbl24PageBits]
	if pg == nil {
		if v == 0 {
			return // writing empty into an empty page: nothing to materialize
		}
		pg = make([]uint32, tbl24PageSize)
		d.tbl24[slot>>tbl24PageBits] = pg
	}
	pg[slot&tbl24PageMask] = v
}

// Insert adds or replaces a route. The table is rebuilt lazily on the next
// Lookup after a batch of inserts (rebuild is O(#routes + table size)).
func (d *Dir248) Insert(p netip.Prefix, nextHop int) error {
	addr, bits, err := validate(p, nextHop)
	if err != nil {
		return err
	}
	d.routes[prefixKey{addr, int8(bits)}] = nextHop
	d.dirty = true
	return nil
}

// Len reports the number of installed prefixes.
func (d *Dir248) Len() int {
	if d.routes == nil {
		return d.n // read-only snapshot published by a LiveTable
	}
	return len(d.routes)
}

// Freeze rebuilds the lookup arrays if needed. Lookup calls it
// automatically, but callers that share the engine across goroutines must
// call Freeze once before publishing, since rebuild is not thread-safe.
func (d *Dir248) Freeze() {
	if !d.dirty {
		return
	}
	d.rebuild()
	d.dirty = false
}

func (d *Dir248) rebuild() { d.rebuildFrom(d.routes) }

// Packed route keys for the build sweep: addr<<29 | bits<<23 | hop.
// Ascending order is address order, then shorter prefix first, so every
// covering prefix sorts before the prefixes nested inside it.
const (
	packAddrShift = 29
	packBitsShift = 23
	packHopMask   = 1<<packBitsShift - 1 // validate caps next hops at 23 bits
)

// unpackRoute splits a packed route key into its address, prefix length
// and leaf value (hop+1; 0 means empty).
func unpackRoute(k uint64) (addr, bits, leaf uint32) {
	return uint32(k >> packAddrShift), uint32(k>>packBitsShift) & 0x3F, uint32(k&packHopMask) + 1
}

// rebuildFrom repaints the lookup arrays from an arbitrary route map —
// the shared core of Freeze and of LiveTable's full-rebuild commits.
//
// One sweep over the sorted routes paints tbl24: a stack holds the open
// prefixes (each inside the one below it), and the gap between two
// route starts takes the hop of the innermost prefix still open there.
// Every covered slot is written once, and a page is materialized only
// where a route covers it. A second pass paints the routes longer than
// /24 into their blocks, each block starting from its slot's leaf.
func (d *Dir248) rebuildFrom(routes map[prefixKey]int) {
	for i := range d.tbl24 {
		d.tbl24[i] = nil // drop every page; the sweep materializes what's needed
	}
	d.tblLong = d.tblLong[:0]

	keys := make([]uint64, 0, len(routes))
	for k, hop := range routes {
		keys = append(keys, uint64(k.addr)<<packAddrShift|uint64(k.bits)<<packBitsShift|uint64(hop))
	}
	slices.Sort(keys)

	type open struct{ end, leaf uint32 } // slot range end (exclusive) and its leaf value
	var stack []open
	next := uint32(0) // first slot not yet painted
	// closeTo paints up to slot s from the prefixes that end at or before
	// it, innermost first, then the gap before s from the prefix still open.
	closeTo := func(s uint32) {
		for len(stack) > 0 && stack[len(stack)-1].end <= s {
			top := stack[len(stack)-1]
			d.fill24(next, top.end, top.leaf)
			next = top.end
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			d.fill24(next, s, stack[len(stack)-1].leaf)
		}
		next = s
	}
	for _, k := range keys {
		addr, bits, leaf := unpackRoute(k)
		if bits > 24 {
			continue
		}
		s := addr >> 8
		closeTo(s)
		stack = append(stack, open{s + 1<<(24-bits), leaf})
	}
	closeTo(1 << 24)

	// Routes longer than /24, in sorted order: a slot's routes are
	// adjacent, and each overlaps only earlier routes that contain it.
	var blk []uint32
	blkSlot := ^uint32(0)
	for _, k := range keys {
		addr, bits, leaf := unpackRoute(k)
		if bits <= 24 {
			continue
		}
		if s := addr >> 8; s != blkSlot {
			blk = make([]uint32, 256)
			fill(blk, d.slot24(s)) // inherit the ≤/24 covering hop (possibly 0)
			d.setSlot24(s, dir248LongFlag|uint32(len(d.tblLong)))
			d.tblLong = append(d.tblLong, blk)
			blkSlot = s
		}
		low := addr & 0xFF
		fill(blk[low:low+1<<(32-bits)], leaf)
	}
}

// fill24 writes v into tbl24 slots [lo, hi), page by page, materializing
// each page it reaches.
func (d *Dir248) fill24(lo, hi, v uint32) {
	for lo < hi {
		pi := lo >> tbl24PageBits
		end := min(hi, (pi+1)<<tbl24PageBits)
		pg := d.tbl24[pi]
		if pg == nil {
			pg = make([]uint32, tbl24PageSize)
			d.tbl24[pi] = pg
		}
		fill(pg[lo&tbl24PageMask:lo&tbl24PageMask+end-lo], v)
		lo = end
	}
}

func fill(s []uint32, v uint32) {
	for i := range s {
		s[i] = v
	}
}

// Lookup returns the next hop for dst, or NoRoute.
func (d *Dir248) Lookup(dst uint32) int {
	if d.dirty {
		d.Freeze()
	}
	var e uint32
	if pg := d.tbl24[dst>>24]; pg != nil {
		e = pg[(dst>>8)&tbl24PageMask]
	}
	if e&dir248LongFlag != 0 {
		e = d.tblLong[e&^dir248LongFlag][dst&0xFF]
	}
	if e == 0 {
		return NoRoute
	}
	return int(e) - 1
}

// MemoryFootprint reports the approximate bytes used by the lookup arrays
// (materialized pages only), for the capacity analysis in EXPERIMENTS.md.
func (d *Dir248) MemoryFootprint() int {
	pages := 0
	for _, pg := range d.tbl24 {
		if pg != nil {
			pages++
		}
	}
	return 4*tbl24PageSize*pages + 4*256*len(d.tblLong)
}

// String summarizes the table shape.
func (d *Dir248) String() string {
	return fmt.Sprintf("dir248{routes=%d, longBlocks=%d}", d.Len(), len(d.tblLong))
}
