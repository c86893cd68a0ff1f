package pkt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a freelist of Packets. Steady-state forwarding churns through
// millions of short-lived packets; without a pool every one is a fresh
// allocation that the garbage collector must later chase, which is
// exactly the per-packet overhead the paper's batching discipline exists
// to amortize. With the pool, packet memory cycles between the traffic
// sources that Get and the graph exits (Discard, Sink, the cluster's
// delivery measurement) that Put, and the hot path allocates ~zero.
//
// The pool is sharded for shared-nothing multi-core operation: each
// PoolShard has its own mutex and freelist, so a core that Gets and
// Puts against its own shard (the placement planner wires every poll
// task to one, see click.Context.PoolShard) never contends with other
// cores. Shards rebalance against a shared backing store in batches —
// a refill or flush moves dozens of packets per backing-lock crossing,
// not one — so even a producer/consumer split across shards (a reader
// core Getting, a writer core Putting) costs one shared-lock
// acquisition per batch rather than per packet. All statistics are
// atomic counters: Stats() and FreeLen() never take a datapath lock.
//
// Ownership discipline: exactly one owner per packet at any time. Get
// transfers ownership to the caller; pushing a packet (or a batch)
// transfers it downstream; whoever terminates a packet's life — and only
// that element — may Put it back. A Put packet must not be touched
// again: the pool will hand its buffer to the next Get, which resets
// metadata and zeroes the data. Double Puts are detected and ignored
// (and counted) rather than corrupting the freelist.
type Pool struct {
	shards []PoolShard

	// backing is the shared overflow store shards refill from and flush
	// to, in batches. bmu is the only lock two cores can meet on, and
	// only once per batch crossing.
	bmu        sync.Mutex
	backing    []*Packet
	backingCap int
	backingLen atomic.Int64

	doublePuts atomic.Uint64 // Puts of an already-pooled packet (ignored)
}

// PoolShard is one core's private slice of a Pool: a locally-locked
// freelist sized so that steady-state Get/Put cycles stay entirely
// within it. Obtain one with Pool.Shard and use it from one core; the
// shard lock exists only for the occasional remote Put routed here by
// packet provenance, not for fast-path sharing.
type PoolShard struct {
	pool *Pool
	id   uint8

	mu    sync.Mutex
	free  []*Packet
	limit int // flush to backing above this

	idle atomic.Int64  // len(free), mirrored so FreeLen never locks
	gets atomic.Uint64 // Get calls against this shard
	hits atomic.Uint64 // Gets served from pooled memory (shard or backing)
	puts atomic.Uint64 // packets accepted back

	// Pad to a cache-line multiple so adjacent shards in the Pool's
	// slice never false-share their hot counters.
	_ [40]byte
}

// DefaultPool backs pkt.New, Clone, and every element terminal: the
// click Context's Recycle and Alloc use its shards.
var DefaultPool = NewPool(4096)

// defaultShards sizes the default shard count to the host's parallelism
// (per-P sharding), bounded so the per-shard freelists stay usefully
// deep.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// NewPool returns a pool retaining at most maxFree idle packets
// (minimum 1) across its shards and backing store; excess Puts are
// released to the garbage collector. The shard count follows the
// host's parallelism; use NewPoolShards to pin it.
func NewPool(maxFree int) *Pool {
	return NewPoolShards(maxFree, defaultShards())
}

// NewPoolShards returns a pool with an explicit shard count (minimum
// 1). A single-shard pool degenerates to the classic one-freelist pool
// — the legacy baseline BenchmarkPool compares against.
func NewPoolShards(maxFree, shards int) *Pool {
	if maxFree < 1 {
		maxFree = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > 256 {
		shards = 256 // home is a uint8 stamp
	}
	// Half the budget lives in the shards, half in the backing store the
	// shards rebalance against. With one shard there is nothing to
	// rebalance: give it the whole budget and skip the backing store.
	limit := maxFree
	backing := 0
	if shards > 1 {
		limit = maxFree / (2 * shards)
		if limit < 1 {
			limit = 1
		}
		backing = maxFree - limit*shards
	}
	pl := &Pool{shards: make([]PoolShard, shards), backingCap: backing}
	for i := range pl.shards {
		pl.shards[i].pool = pl
		pl.shards[i].id = uint8(i)
		pl.shards[i].limit = limit
	}
	return pl
}

// Shards reports the shard count.
func (pl *Pool) Shards() int { return len(pl.shards) }

// Shard returns shard i (modulo the shard count, so callers can key
// directly on a core index). The returned handle is what a datapath
// core holds: its Get/Put run against core-local state.
func (pl *Pool) Shard(i int) *PoolShard {
	if i < 0 {
		i = -i
	}
	return &pl.shards[i%len(pl.shards)]
}

// Pool returns the pool this shard belongs to.
func (s *PoolShard) Pool() *Pool { return s.pool }

// Get returns a packet with Data sized to size bytes, zero-filled, and
// all metadata reset — indistinguishable from a freshly allocated one.
// Plain Pool.Get serves from shard 0, which keeps single-threaded
// callers (Put then Get reuses the same packet) exact; multi-core
// callers hold a Shard handle instead.
func (pl *Pool) Get(size int) *Packet {
	return pl.shards[0].Get(size)
}

// getRaw is Get without the zero fill, for callers (Clone) that
// immediately overwrite every byte. It serves from the shard the
// packet's buffer came from, keeping clone traffic off other shards.
func (pl *Pool) getRaw(size int) *Packet {
	return pl.shards[0].getRaw(size)
}

// Get is Pool.Get against this shard's freelist. Steady state touches
// only the shard lock; an empty shard refills a batch from the backing
// store first.
func (s *PoolShard) Get(size int) *Packet {
	p := s.getRaw(size)
	clear(p.Data)
	return p
}

// GetRaw is Get without the zero fill, for callers that immediately
// overwrite every byte — receive paths that hand the buffer to the
// kernel, clones that copy over it.
func (s *PoolShard) GetRaw(size int) *Packet {
	return s.getRaw(size)
}

// getRaw is Get without the zero fill.
func (s *PoolShard) getRaw(size int) *Packet {
	s.gets.Add(1)
	s.mu.Lock()
	if len(s.free) == 0 {
		s.refillLocked()
	}
	var p *Packet
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		s.idle.Store(int64(len(s.free)))
	}
	s.mu.Unlock()
	if p != nil {
		s.hits.Add(1)
	}
	if p == nil || cap(p.Data) < size {
		// Size fresh buffers to hold any standard frame so one pooled
		// packet can serve every workload's packet-size mix.
		bufCap := size
		if bufCap < MaxSize {
			bufCap = MaxSize
		}
		buf := make([]byte, size, bufCap)
		if p == nil {
			return &Packet{Data: buf, home: s.id}
		}
		*p = Packet{Data: buf, home: s.id}
		return p
	}
	data := p.Data[:size]
	*p = Packet{Data: data, home: s.id}
	return p
}

// refillLocked pulls a batch of idle packets from the backing store
// into the shard — the one shared-lock crossing a run of Gets pays.
// Caller holds s.mu.
func (s *PoolShard) refillLocked() {
	pl := s.pool
	if pl.backingCap == 0 {
		return
	}
	want := s.limit/2 + 1
	pl.bmu.Lock()
	n := len(pl.backing)
	if want > n {
		want = n
	}
	if want > 0 {
		from := n - want
		s.free = append(s.free, pl.backing[from:]...)
		for i := from; i < n; i++ {
			pl.backing[i] = nil
		}
		pl.backing = pl.backing[:from]
		pl.backingLen.Store(int64(from))
	}
	pl.bmu.Unlock()
	s.idle.Store(int64(len(s.free)))
}

// flushLocked pushes the shard's oldest surplus to the backing store in
// one batch; whatever the backing store cannot hold goes to the GC.
// Caller holds s.mu.
func (s *PoolShard) flushLocked() {
	pl := s.pool
	n := s.limit/2 + 1
	if n > len(s.free) {
		n = len(s.free)
	}
	if pl.backingCap > 0 {
		pl.bmu.Lock()
		keep := pl.backingCap - len(pl.backing)
		if keep > n {
			keep = n
		}
		if keep > 0 {
			pl.backing = append(pl.backing, s.free[:keep]...)
			pl.backingLen.Store(int64(len(pl.backing)))
		}
		pl.bmu.Unlock()
	}
	// Evict from the front (oldest, cache-cold) and keep the hot tail.
	copy(s.free, s.free[n:])
	for i := len(s.free) - n; i < len(s.free); i++ {
		s.free[i] = nil
	}
	s.free = s.free[:len(s.free)-n]
	s.idle.Store(int64(len(s.free)))
}

// Put returns a packet to the shard's freelist, regardless of which
// shard it was drawn from — the recycling core keeps the buffer local
// to itself, which is what a packet that crossed a handoff ring wants.
// nil and double Puts are ignored.
func (s *PoolShard) Put(p *Packet) {
	if p == nil {
		return
	}
	if !atomic.CompareAndSwapUint32(&p.pooled, 0, 1) {
		s.pool.doublePuts.Add(1)
		return
	}
	s.puts.Add(1)
	s.mu.Lock()
	s.free = append(s.free, p)
	if len(s.free) > s.limit {
		s.flushLocked()
	} else {
		s.idle.Store(int64(len(s.free)))
	}
	s.mu.Unlock()
}

// PutBatch takes every remaining packet out of b and Puts it against
// this shard, taking the shard lock once for the whole batch, then
// resets b — the terminal move for a batch that is being dropped whole.
func (s *PoolShard) PutBatch(b *Batch) {
	accepted := 0
	s.mu.Lock()
	for i, p := range b.Packets() {
		if p == nil {
			continue
		}
		b.Drop(i)
		if !atomic.CompareAndSwapUint32(&p.pooled, 0, 1) {
			s.pool.doublePuts.Add(1)
			continue
		}
		accepted++
		s.free = append(s.free, p)
	}
	if len(s.free) > s.limit {
		s.flushLocked()
	} else {
		s.idle.Store(int64(len(s.free)))
	}
	s.mu.Unlock()
	s.puts.Add(uint64(accepted))
	b.Reset()
}

// FreeLen reports how many packets are idle on this shard (lock-free).
func (s *PoolShard) FreeLen() int { return int(s.idle.Load()) }

// Stats reports this shard's (gets, hits, puts) without locking.
func (s *PoolShard) Stats() (gets, hits, puts uint64) {
	return s.gets.Load(), s.hits.Load(), s.puts.Load()
}

// Put returns a packet to the pool. The packet lands on the shard it
// was drawn from (its provenance stamp), so a single-threaded
// Put-then-Get round trip always finds it again. Cores on a hot path
// use their own PoolShard handle instead, which recycles locally.
// nil and double Puts are ignored.
func (pl *Pool) Put(p *Packet) {
	if p == nil {
		return
	}
	pl.shards[int(p.home)%len(pl.shards)].Put(p)
}

// PutBatch takes every remaining packet out of b and Puts it, taking
// each shard lock once per batch, then resets b. Batches are routed by
// the provenance of their first packet — batch members overwhelmingly
// share an origin, and the backing store rebalances any that do not.
func (pl *Pool) PutBatch(b *Batch) {
	for _, p := range b.Packets() {
		if p != nil {
			pl.shards[int(p.home)%len(pl.shards)].PutBatch(b)
			return
		}
	}
	b.Reset()
}

// FreeLen reports how many packets are idle in the pool (all shards
// plus the backing store). Lock-free: it reads mirrored atomic gauges,
// so observers never serialize the datapath.
func (pl *Pool) FreeLen() int {
	n := int(pl.backingLen.Load())
	for i := range pl.shards {
		n += pl.shards[i].FreeLen()
	}
	return n
}

// Stats reports (gets, freelist hits, puts, ignored double puts),
// summed across shards from atomic counters — never taking a datapath
// lock.
func (pl *Pool) Stats() (gets, hits, puts, doublePuts uint64) {
	for i := range pl.shards {
		g, h, p := pl.shards[i].Stats()
		gets += g
		hits += h
		puts += p
	}
	return gets, hits, puts, pl.doublePuts.Load()
}
