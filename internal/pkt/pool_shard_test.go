package pkt

import (
	"sync"
	"testing"
)

// TestPoolShardRefillFlush forces batch crossings between a shard and
// the backing store with a deliberately tiny budget, and checks the
// accounting at every step: nothing is lost, FreeLen never exceeds the
// retention budget, and a drained pool refills shards from the backing
// store rather than allocating.
func TestPoolShardRefillFlush(t *testing.T) {
	const maxFree = 16
	pool := NewPoolShards(maxFree, 4)
	s := pool.Shard(0)

	// Fill well past the shard's limit so Puts flush into backing.
	live := make([]*Packet, 0, 4*maxFree)
	for i := 0; i < 4*maxFree; i++ {
		live = append(live, s.Get(64))
	}
	for _, p := range live {
		s.Put(p)
	}
	if got := pool.FreeLen(); got > maxFree {
		t.Errorf("FreeLen = %d after mass Put, want <= %d (retention budget)", got, maxFree)
	}
	if got := pool.FreeLen(); got == 0 {
		t.Error("FreeLen = 0 after mass Put: nothing was retained")
	}
	if bl := int(pool.backingLen.Load()); bl == 0 {
		t.Error("backing store empty after flushing past the shard limit")
	}

	// Drain through a different shard: its refill must pull the retained
	// packets out of the backing store before allocating fresh ones.
	s2 := pool.Shard(1)
	retained := pool.FreeLen()
	for i := 0; i < retained; i++ {
		s2.Get(64)
	}
	_, hits, _ := s2.Stats()
	if hits == 0 {
		t.Error("no freelist hits draining via a sibling shard: refill did not reach the backing store")
	}
}

// TestPoolShardLocalRecycle: a shard Put keeps the buffer on that shard
// even when the packet was drawn elsewhere (core-local recycling), and
// the packet is restamped to its new home on the next Get.
func TestPoolShardLocalRecycle(t *testing.T) {
	pool := NewPoolShards(64, 4)
	p := pool.Shard(0).Get(64)
	if p.home != 0 {
		t.Fatalf("home = %d after shard-0 Get, want 0", p.home)
	}
	pool.Shard(3).Put(p)
	if got := pool.Shard(3).FreeLen(); got != 1 {
		t.Errorf("shard 3 FreeLen = %d after local Put, want 1", got)
	}
	q := pool.Shard(3).Get(64)
	if q != p {
		t.Error("shard 3 Get did not reuse the locally recycled packet")
	}
	if q.home != 3 {
		t.Errorf("home = %d after shard-3 reuse, want 3 (restamped)", q.home)
	}
}

// TestPoolHomeRouting: plain Pool.Put routes by the packet's provenance
// stamp, so a single-threaded Put-then-Get round trip through the
// pool-level API reuses the same packet even on a many-shard pool.
func TestPoolHomeRouting(t *testing.T) {
	pool := NewPoolShards(256, 8)
	p := pool.Shard(5).Get(64)
	pool.Put(p)
	if got := pool.Shard(5).FreeLen(); got != 1 {
		t.Errorf("shard 5 FreeLen = %d after routed Put, want 1", got)
	}
	if q := pool.Shard(5).Get(64); q != p {
		t.Error("routed Put did not land on the packet's home shard")
	}
}

// TestPoolShardStress is the -race gate for the shard protocol: many
// goroutines hammer their own shards — plus deliberate cross-shard
// Puts — with a budget small enough that refill and flush crossings
// happen constantly. The conservation invariant: every Get is matched
// by exactly one accepted Put and no double put is ever recorded, no
// matter how the backing-store batches interleave.
func TestPoolShardStress(t *testing.T) {
	const (
		workers = 8
		rounds  = 2000
		batch   = 16
	)
	pool := NewPoolShards(64, 4) // tiny: constant refill/flush traffic
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := pool.Shard(w)
			remote := pool.Shard(w + 1)
			buf := make([]*Packet, 0, batch)
			for r := 0; r < rounds; r++ {
				buf = buf[:0]
				for i := 0; i < batch; i++ {
					buf = append(buf, own.Get(64))
				}
				// Odd rounds recycle remotely: the handoff-ring pattern.
				dst := own
				if r%2 == 1 {
					dst = remote
				}
				for _, p := range buf {
					dst.Put(p)
				}
			}
		}()
	}
	wg.Wait()

	gets, hits, puts, doublePuts := pool.Stats()
	want := uint64(workers * rounds * batch)
	if gets != want {
		t.Errorf("gets = %d, want %d", gets, want)
	}
	if puts != want {
		t.Errorf("puts = %d, want %d (conservation: every Get returned exactly once)", puts, want)
	}
	if doublePuts != 0 {
		t.Errorf("doublePuts = %d, want 0", doublePuts)
	}
	if hits > gets {
		t.Errorf("hits (%d) > gets (%d)", hits, gets)
	}
	if free := pool.FreeLen(); free > 64 {
		t.Errorf("FreeLen = %d, want <= 64 (retention budget)", free)
	}
}

// TestPoolPutBatchStress exercises the batched put path under -race:
// concurrent PutBatch calls against shared shards must accept every
// packet exactly once.
func TestPoolPutBatchStress(t *testing.T) {
	const (
		workers = 4
		rounds  = 1000
		batch   = 32
	)
	pool := NewPoolShards(128, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := pool.Shard(w)
			b := NewBatch(batch)
			for r := 0; r < rounds; r++ {
				b.Reset()
				for i := 0; i < batch; i++ {
					b.Add(own.Get(64))
				}
				// Alternate between shard-batched and pool-routed puts.
				if r%2 == 0 {
					own.PutBatch(b)
				} else {
					pool.PutBatch(b)
				}
			}
		}()
	}
	wg.Wait()

	gets, _, puts, doublePuts := pool.Stats()
	want := uint64(workers * rounds * batch)
	if gets != want || puts != want || doublePuts != 0 {
		t.Errorf("gets/puts/doublePuts = %d/%d/%d, want %d/%d/0", gets, puts, doublePuts, want, want)
	}
}
