package lpm

import (
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// LiveTable is an RCU-style live FIB: a Dir248 lookup table behind an
// atomic generation pointer. Writers batch adds and withdraws, build a
// complete replacement snapshot off to the side, and publish it with one
// atomic store; readers load the current snapshot with one atomic read and
// never observe a partial table. Old snapshots stay valid for readers that
// already hold them — the Go garbage collector is the grace period.
//
// Writers are serialized by an internal mutex; any number of readers may
// call Lookup / Load concurrently with a writer. A burst of updates
// applied through one Update call costs one table build, not one per
// route.
//
// The writer's only authority is the route map. The first commit onto an
// empty table, large batches, and tables that accumulated too many
// orphaned blocks take a full DIR-24-8 build (one sweep over the sorted
// routes). Other commits are incremental: the previous snapshot's tbl24
// pages and second-level blocks are shared and copied on write — only the
// 2^16-entry pages containing touched slots are cloned, so a one-route
// commit copies one 256 KB page instead of the whole 64 MB table — and
// each touched slot is repainted from the route map, probing only the
// prefix lengths that hold routes.
type LiveTable struct {
	mu        sync.Mutex // serializes writers
	cur       atomic.Pointer[Dir248]
	gen       atomic.Uint64
	count     atomic.Int64
	routes    map[prefixKey]int
	perLen    [33]int        // installed routes per prefix length
	longCount map[uint32]int // tbl24 slot -> number of >/24 routes inside it
	orphans   int            // published blocks no slot references anymore
}

// Incremental-commit limits. A patch repaints one tbl24 slot per covered
// /24 (a /16 change touches 256 slots, a /8 touches 65536); past
// patchSlotLimit the full rebuild is cheaper and bounds worst-case commit
// latency. orphanLimit caps dead second-level blocks kept alive by
// copy-on-write before a compacting rebuild reclaims them.
const (
	patchSlotLimit = 1 << 18
	orphanLimit    = 1 << 12
)

// NewLiveTable returns an empty live FIB at generation 0, optionally
// preloaded with routes (one commit, generation 1, on any routes at all).
// The error, if any, is the first rejected route.
func NewLiveTable(routes ...Route) (*LiveTable, error) {
	lt := &LiveTable{
		routes:    make(map[prefixKey]int),
		longCount: make(map[uint32]int),
	}
	lt.cur.Store(newDir248Snap())
	if len(routes) > 0 {
		if _, err := lt.Update(routes, nil); err != nil {
			return nil, err
		}
	}
	return lt, nil
}

// Load returns the current published snapshot. The snapshot is immutable
// and complete; hold it across a batch of lookups to pay the atomic load
// once. Do not call Insert or Freeze on it.
func (lt *LiveTable) Load() *Dir248 { return lt.cur.Load() }

// Generation reports the number of published commits. It increases by
// exactly one per effective Update, never decreases, and is 0 only before
// the first commit.
func (lt *LiveTable) Generation() uint64 { return lt.gen.Load() }

// Len reports the number of installed prefixes.
func (lt *LiveTable) Len() int { return int(lt.count.Load()) }

// Lookup returns the next hop for dst in the current snapshot, or
// NoRoute. It is safe from any goroutine at any time. Batch callers
// should Load once and look up against the snapshot instead.
func (lt *LiveTable) Lookup(dst uint32) int { return lt.cur.Load().Lookup(dst) }

// Insert adds or replaces a single route, committing immediately. It
// satisfies Engine; bursts should prefer Update, which commits the whole
// batch in one table build.
func (lt *LiveTable) Insert(p netip.Prefix, nextHop int) error {
	_, err := lt.Update([]Route{{Prefix: p, NextHop: nextHop}}, nil)
	return err
}

// Withdraw removes a single route, committing immediately. Withdrawing a
// route that is not installed is a no-op.
func (lt *LiveTable) Withdraw(p netip.Prefix) error {
	_, err := lt.Update(nil, []netip.Prefix{p})
	return err
}

// Routes lists the installed routes sorted by address then prefix length —
// a stable order for admin APIs and tests.
func (lt *LiveTable) Routes() []Route {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	out := make([]Route, 0, len(lt.routes))
	for k, hop := range lt.routes {
		a4 := [4]byte{byte(k.addr >> 24), byte(k.addr >> 16), byte(k.addr >> 8), byte(k.addr)}
		out = append(out, Route{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4(a4), int(k.bits)),
			NextHop: hop,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].Prefix.Addr(), out[j].Prefix.Addr()
		if ai != aj {
			return ai.Less(aj)
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

// liveChange is one validated element of an Update batch.
type liveChange struct {
	key prefixKey
	hop int
	add bool
}

// Update applies a batch of route adds and withdraws as one commit and
// returns the generation now visible to readers. The whole batch is
// validated before anything is applied — on error the table is unchanged.
// Re-adding an identical route and withdrawing an absent one are no-ops;
// a batch with no effective change publishes nothing and keeps the
// generation.
func (lt *LiveTable) Update(adds []Route, withdraws []netip.Prefix) (uint64, error) {
	lt.mu.Lock()
	defer lt.mu.Unlock()

	changes := make([]liveChange, 0, len(adds)+len(withdraws))
	for _, r := range adds {
		addr, bits, err := validate(r.Prefix, r.NextHop)
		if err != nil {
			return lt.gen.Load(), err
		}
		changes = append(changes, liveChange{prefixKey{addr, int8(bits)}, r.NextHop, true})
	}
	for _, p := range withdraws {
		addr, bits, err := validate(p, 0)
		if err != nil {
			return lt.gen.Load(), err
		}
		changes = append(changes, liveChange{key: prefixKey{addr, int8(bits)}})
	}

	// The first commit onto an empty table has no previous snapshot worth
	// patching: it goes straight to the full build.
	full := len(lt.routes) == 0
	if full {
		lt.routes = make(map[prefixKey]int, len(adds))
	}
	// Apply to the route map, collecting the tbl24 slots whose painted
	// state may have changed, until the batch is too wide to patch.
	var touched []uint32
	slots := 0
	touch := func(k prefixKey) {
		n := 1
		if k.bits <= 24 {
			n = 1 << (24 - k.bits)
		}
		slots += n // counted before dedup; only gates the rebuild fallback
		if full || slots > patchSlotLimit {
			return
		}
		for i := range uint32(n) {
			touched = append(touched, k.addr>>8+i)
		}
	}
	dirty := false
	for _, c := range changes {
		if c.add {
			old, existed := lt.routes[c.key]
			if existed && old == c.hop {
				continue
			}
			lt.routes[c.key] = c.hop
			if !existed {
				lt.perLen[c.key.bits]++
				if c.key.bits > 24 {
					lt.longCount[c.key.addr>>8]++
				}
			}
		} else {
			if _, existed := lt.routes[c.key]; !existed {
				continue
			}
			delete(lt.routes, c.key)
			lt.perLen[c.key.bits]--
			if c.key.bits > 24 {
				slot := c.key.addr >> 8
				if lt.longCount[slot]--; lt.longCount[slot] == 0 {
					delete(lt.longCount, slot)
				}
			}
		}
		dirty = true
		touch(c.key)
	}
	if !dirty {
		return lt.gen.Load(), nil
	}

	var snap *Dir248
	if full || slots > patchSlotLimit || lt.orphans > orphanLimit {
		snap = newDir248Snap()
		snap.rebuildFrom(lt.routes)
		lt.orphans = 0
	} else {
		snap = lt.patch(lt.cur.Load(), touched)
	}
	snap.n = len(lt.routes)
	lt.count.Store(int64(len(lt.routes)))
	lt.cur.Store(snap)
	return lt.gen.Add(1), nil
}

// patch builds the next snapshot incrementally: share the previous
// snapshot's tbl24 pages and second-level blocks, clone only the pages
// containing touched slots, and repaint those slots from the route map.
// Neither pages nor blocks are ever mutated in place — a touched slot
// gets a freshly copied page (and, for >/24 routes, a freshly painted
// block) — so the previous snapshot stays intact for readers still
// holding it.
func (lt *LiveTable) patch(old *Dir248, touched []uint32) *Dir248 {
	snap := &Dir248{
		tbl24:   slices.Clone(old.tbl24), // share page pointers; clone on touch below
		tblLong: slices.Clone(old.tblLong),
	}
	slices.Sort(touched)
	var pg []uint32
	pi := ^uint32(0)
	for _, s := range slices.Compact(touched) {
		if s>>tbl24PageBits != pi {
			pi = s >> tbl24PageBits
			pg = make([]uint32, tbl24PageSize)
			copy(pg, old.tbl24[pi]) // a nil page copies nothing
			snap.tbl24[pi] = pg
		}
		e := pg[s&tbl24PageMask]
		if lt.longCount[s] == 0 {
			// No >/24 route lives in this slot: every address in it
			// shares one LPM answer, the slot's leaf.
			if e&dir248LongFlag != 0 {
				lt.orphans++
			}
			pg[s&tbl24PageMask] = lt.leaf(s)
			continue
		}
		blk := make([]uint32, 256)
		fill(blk, lt.leaf(s))
		lt.paintLong(blk, s)
		if e&dir248LongFlag != 0 {
			snap.tblLong[e&^dir248LongFlag] = blk
		} else {
			pg[s&tbl24PageMask] = dir248LongFlag | uint32(len(snap.tblLong))
			snap.tblLong = append(snap.tblLong, blk)
		}
	}
	return snap
}

// leaf is tbl24 slot s's leaf value: the hop of its longest matching
// prefix of at most /24, probed in the route map at each length that
// holds routes, longest first.
func (lt *LiveTable) leaf(s uint32) uint32 {
	for bits := 24; bits >= 0; bits-- {
		if lt.perLen[bits] == 0 {
			continue
		}
		k := prefixKey{s << 8 & (^uint32(0) << (32 - bits)), int8(bits)}
		if hop, ok := lt.routes[k]; ok {
			return uint32(hop) + 1
		}
	}
	return 0
}

// paintLong paints the routes longer than /24 inside slot s into its
// block, shorter first so that each nested route overwrites the routes
// containing it.
func (lt *LiveTable) paintLong(blk []uint32, s uint32) {
	left := lt.longCount[s]
	for bits := 25; bits <= 32 && left > 0; bits++ {
		if lt.perLen[bits] == 0 {
			continue
		}
		size := uint32(1) << (32 - bits)
		for low := uint32(0); low < 256; low += size {
			if hop, ok := lt.routes[prefixKey{s<<8 | low, int8(bits)}]; ok {
				fill(blk[low:low+size], uint32(hop)+1)
				left--
			}
		}
	}
}
