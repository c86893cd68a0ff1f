// Package exec is the real-core execution layer: the lock-free SPSC
// packet ring that carries packets between cores. The paper's §4.2 rule
// — one core per queue — makes every queue single-producer/single-
// consumer, so one ring serves every place a queue appears: inter-core
// handoffs in a placement plan, pipeline input rings, egress queues, and
// the simulator's NIC descriptor rings. The §4.2 comparison of core
// allocations — parallel (each core runs the whole pipeline on its own
// queue) versus pipelined (the pipeline is cut into stages, one per
// core) — turns on exactly the cost this ring embodies: every
// inter-core handoff is cache-coherence traffic that the parallel
// allocation never pays. internal/click builds placement plans on top
// of this package.
package exec

import (
	"fmt"
	"sync/atomic"

	"routebricks/internal/pkt"
)

// Ring is a fixed-capacity single-producer/single-consumer packet ring,
// the software image of a NIC descriptor ring and of an inter-core
// handoff queue alike. Each side caches its last snapshot of the other
// side's index, so in steady state a push or pop touches only cache
// lines owned by its own core — the remote index is re-read only when
// the cached view cannot satisfy the call: too little room for a push,
// too few packets for a pop. A batch pop therefore moves everything
// available up to its limit, as a NIC poll does. Head and tail live on
// separate cache lines so the two cores never false-share.
//
// Go does not align heap objects to cache lines: a Ring starts on
// whatever 16-byte boundary its size class gives it, and that varies
// with allocation order. So each group of fields is fenced by a whole
// line of padding on both sides — fields 64 bytes apart never share a
// line, wherever the Ring starts — rather than placed for one alignment
// that other alignments would break.
//
// Exactly one goroutine may push and one may pop. Violating that is a
// programming error: no memory is corrupted (indices are atomics), but
// packets can be dropped or duplicated. Tests enforce the discipline.
type Ring struct {
	_ [cacheLine]byte
	// Read by both sides, written only by NewRing.
	buf  []*pkt.Packet
	mask uint64
	_    [cacheLine]byte
	// Producer-owned: tail is published to the consumer; headCache is
	// the producer's private snapshot of head; rejected counts pushes
	// that found the ring full.
	tail      atomic.Uint64
	headCache uint64
	rejected  atomic.Uint64
	_         [cacheLine]byte
	// Consumer-owned: head is published to the producer; tailCache is
	// the consumer's private snapshot of tail.
	head      atomic.Uint64
	tailCache uint64
	_         [cacheLine]byte
}

// cacheLine is the coherence unit the Ring's padding assumes (x86-64 and
// most arm64 parts).
const cacheLine = 64

// NewRing creates a handoff ring with capacity rounded up to a power of
// two (minimum 2).
func NewRing(capacity int) *Ring {
	if capacity < 2 {
		capacity = 2
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Ring{buf: make([]*pkt.Packet, c), mask: uint64(c - 1)}
}

// Cap reports the usable capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Len reports the current occupancy (approximate under concurrency).
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Rejected reports how many packet pushes the ring turned away because
// it was full. A rejected packet stays with the caller (who may retry,
// reroute, or recycle it), so this counts backpressure events, not
// necessarily losses — the caller owns the loss accounting.
func (r *Ring) Rejected() uint64 { return r.rejected.Load() }

// Free reports the producer-side view of remaining space, refreshing
// the head snapshot. It can never overstate the true free space (the
// consumer only drains), which makes it safe for backpressure: a stage
// that polls at most Free() packets from upstream can never overflow
// this ring. Call only from the producer goroutine; it is meant to be
// called once per batch, not per packet.
func (r *Ring) Free() int {
	r.headCache = r.head.Load()
	return len(r.buf) - int(r.tail.Load()-r.headCache)
}

// Push appends p; it reports false (and counts a rejection) when full.
// Call only from the producer goroutine.
func (r *Ring) Push(p *pkt.Packet) bool {
	tail := r.tail.Load()
	if tail-r.headCache >= uint64(len(r.buf)) {
		r.headCache = r.head.Load()
		if tail-r.headCache >= uint64(len(r.buf)) {
			r.rejected.Add(1)
			return false
		}
	}
	r.buf[tail&r.mask] = p
	r.tail.Store(tail + 1)
	return true
}

// PushBatch moves as many of b's packets as fit into the ring, in slot
// order, publishing the tail once for the whole batch — one cache-line
// handoff per batch instead of per packet. It returns how many were
// accepted. Rejected packets are counted and stay with the caller,
// compacted to the front of b; nil (already-dropped) slots are skipped.
// Call only from the producer goroutine.
func (r *Ring) PushBatch(b *pkt.Batch) int {
	tail := r.tail.Load()
	free := uint64(len(r.buf)) - (tail - r.headCache)
	if free < uint64(b.Len()) {
		r.headCache = r.head.Load()
		free = uint64(len(r.buf)) - (tail - r.headCache)
	}
	accepted := 0
	for i, p := range b.Packets() {
		if p == nil {
			continue
		}
		if uint64(accepted) >= free {
			r.rejected.Add(1)
			continue // leave the packet with the caller
		}
		b.Drop(i)
		r.buf[(tail+uint64(accepted))&r.mask] = p
		accepted++
	}
	if accepted > 0 {
		r.tail.Store(tail + uint64(accepted))
	}
	b.Compact()
	return accepted
}

// Pop removes and returns the oldest packet, or nil when empty. Call
// only from the consumer goroutine.
func (r *Ring) Pop() *pkt.Packet {
	head := r.head.Load()
	if head == r.tailCache {
		r.tailCache = r.tail.Load()
		if head == r.tailCache {
			return nil
		}
	}
	p := r.buf[head&r.mask]
	r.buf[head&r.mask] = nil
	r.head.Store(head + 1)
	return p
}

// PopBatchInto appends up to max packets (bounded by b's remaining
// capacity) from the ring into b and returns how many moved, publishing
// the head once for the whole batch. The tail is re-read only when the
// cached snapshot holds fewer packets than requested. Call only from the
// consumer goroutine.
func (r *Ring) PopBatchInto(b *pkt.Batch, max int) int {
	head := r.head.Load()
	n := uint64(b.Cap() - b.Len())
	if uint64(max) < n {
		n = uint64(max)
	}
	avail := r.tailCache - head
	if avail < n {
		r.tailCache = r.tail.Load()
		avail = r.tailCache - head
	}
	if avail < n {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		b.Add(r.buf[(head+i)&r.mask])
		r.buf[(head+i)&r.mask] = nil
	}
	if n > 0 {
		r.head.Store(head + n)
	}
	return int(n)
}

// Drain pops every packet currently in the ring into fn and reports how
// many it moved. It is the teardown half of a reload barrier: once the
// producer and consumer cores have been stopped (or were never
// started), the reloading goroutine calls Drain to take ownership of
// whatever is still queued — account it, recycle it — before the ring
// is discarded. Call only from the consumer goroutine, or after the
// consumer has provably exited.
func (r *Ring) Drain(fn func(*pkt.Packet)) int {
	n := 0
	for {
		p := r.Pop()
		if p == nil {
			return n
		}
		fn(p)
		n++
	}
}

// String summarizes occupancy for debugging.
func (r *Ring) String() string {
	return fmt.Sprintf("exec.Ring{%d/%d, rejected=%d}", r.Len(), r.Cap(), r.Rejected())
}
