package exec

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"routebricks/internal/pkt"
)

// mark tags a packet with a sequence number we can verify on the far
// side of the ring.
func mark(seq uint64) *pkt.Packet {
	return &pkt.Packet{SeqNo: seq}
}

// TestRingLayout checks that the shared, producer and consumer field
// groups sit at least a cache line apart from each other and from the
// Ring's neighbours on the heap, so no start alignment can put two of
// them on one line.
func TestRingLayout(t *testing.T) {
	var r Ring
	type span struct {
		name   string
		lo, hi uintptr // [lo, hi) byte offsets
	}
	end := func(off, size uintptr) uintptr { return off + size }
	groups := []span{
		{"shared", unsafe.Offsetof(r.buf), end(unsafe.Offsetof(r.mask), unsafe.Sizeof(r.mask))},
		{"producer", unsafe.Offsetof(r.tail), end(unsafe.Offsetof(r.rejected), unsafe.Sizeof(r.rejected))},
		{"consumer", unsafe.Offsetof(r.head), end(unsafe.Offsetof(r.tailCache), unsafe.Sizeof(r.tailCache))},
	}
	prevHi := uintptr(0) // the previous heap object ends at offset 0
	for _, g := range groups {
		if g.lo < prevHi+cacheLine-1 {
			t.Errorf("%s group starts at %d, within a line of what ends at %d", g.name, g.lo, prevHi)
		}
		prevHi = g.hi
	}
	if size := unsafe.Sizeof(r); size < prevHi+cacheLine-1 {
		t.Errorf("Ring is %d bytes, the consumer group ends at %d: the next heap object is within a line", size, prevHi)
	}
}

func TestRingBasics(t *testing.T) {
	r := NewRing(5) // rounds up to 8
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	if r.Free() != 8 {
		t.Fatalf("Free = %d, want 8", r.Free())
	}
	for i := 0; i < 8; i++ {
		if !r.Push(mark(uint64(i))) {
			t.Fatalf("Push %d rejected on non-full ring", i)
		}
	}
	if r.Push(mark(99)) {
		t.Fatal("Push accepted on full ring")
	}
	if r.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1", r.Rejected())
	}
	if r.Free() != 0 {
		t.Fatalf("Free = %d on full ring, want 0", r.Free())
	}
	for i := 0; i < 8; i++ {
		p := r.Pop()
		if p == nil || p.SeqNo != uint64(i) {
			t.Fatalf("Pop %d = %v, want seq %d", i, p, i)
		}
	}
	if r.Pop() != nil {
		t.Fatal("Pop on empty ring returned a packet")
	}
}

// TestRingFIFO: a full ring rejects and counts the overflow, pops come
// out in push order, and an empty ring pops nil.
func TestRingFIFO(t *testing.T) {
	r := NewRing(8)
	for i := uint64(0); i < 8; i++ {
		if !r.Push(mark(i)) {
			t.Fatalf("Push %d failed", i)
		}
	}
	if r.Push(mark(99)) {
		t.Fatal("Push into full ring succeeded")
	}
	if r.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1", r.Rejected())
	}
	for i := uint64(0); i < 8; i++ {
		if p := r.Pop(); p == nil || p.SeqNo != i {
			t.Fatalf("Pop %d: got %v", i, p)
		}
	}
	if r.Pop() != nil {
		t.Fatal("Pop from empty ring returned a packet")
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {512, 512}, {513, 1024}} {
		if got := NewRing(c.in).Cap(); got != c.want {
			t.Errorf("NewRing(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestRingWraparound cycles the indices far past the capacity: masking
// must keep FIFO order across every wrap.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	seq := uint64(0)
	for round := 0; round < 100; round++ {
		for i := uint64(0); i < 3; i++ {
			if !r.Push(mark(seq + i)) {
				t.Fatalf("Push rejected at round %d", round)
			}
		}
		for i := uint64(0); i < 3; i++ {
			if p := r.Pop(); p == nil || p.SeqNo != seq+i {
				t.Fatalf("round %d: got %v, want seq %d", round, p, seq+i)
			}
		}
		seq += 3
	}
}

// TestPropertyRingConservation: a ring never loses or duplicates
// packets — everything pushed successfully is popped exactly once, in
// order, under any interleaving of single and batch operations.
func TestPropertyRingConservation(t *testing.T) {
	f := func(ops []uint8, capBits uint8) bool {
		r := NewRing(2 + int(capBits)%62)
		var next uint64
		var want, got []uint64
		out := pkt.NewBatch(8)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if r.Push(mark(next)) {
					want = append(want, next)
				}
				next++
			case 1:
				b := pkt.NewBatch(8)
				for i := 0; i < int(op>>2)%8+1; i++ {
					b.Add(mark(next))
					next++
				}
				first := b.At(0).SeqNo
				n := r.PushBatch(b)
				for i := 0; i < n; i++ {
					want = append(want, first+uint64(i))
				}
			case 2:
				if p := r.Pop(); p != nil {
					got = append(got, p.SeqNo)
				}
			case 3:
				out.Reset()
				r.PopBatchInto(out, int(op>>2)%8+1)
				for _, p := range out.Packets() {
					got = append(got, p.SeqNo)
				}
			}
		}
		r.Drain(func(p *pkt.Packet) { got = append(got, p.SeqNo) })
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRingBatchOverflowStaysWithCaller(t *testing.T) {
	r := NewRing(4)
	b := pkt.NewBatch(8)
	for i := 0; i < 6; i++ {
		b.Add(mark(uint64(i)))
	}
	if got := r.PushBatch(b); got != 4 {
		t.Fatalf("PushBatch accepted %d, want 4", got)
	}
	if r.Rejected() != 2 {
		t.Fatalf("Rejected = %d, want 2", r.Rejected())
	}
	// The two rejected packets stay with the caller, compacted, in order.
	if b.Len() != 2 || b.At(0).SeqNo != 4 || b.At(1).SeqNo != 5 {
		t.Fatalf("leftover batch = %d packets (first %v), want seqs 4,5", b.Len(), b.At(0))
	}
	out := pkt.NewBatch(8)
	if got := r.PopBatchInto(out, 8); got != 4 {
		t.Fatalf("PopBatchInto = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		if out.At(i).SeqNo != uint64(i) {
			t.Fatalf("slot %d = seq %d, want %d", i, out.At(i).SeqNo, i)
		}
	}
}

// TestRingEnqueueBatchOverflowStaysWithCaller: the overflow of a batch
// push stays with the caller, compacted and in order, and that leftover
// batch round-trips whole through a second ring.
func TestRingEnqueueBatchOverflowStaysWithCaller(t *testing.T) {
	r := NewRing(4)
	b := pkt.NewBatch(8)
	for i := uint64(0); i < 7; i++ {
		b.Add(mark(i))
	}
	if n := r.PushBatch(b); n != 4 {
		t.Fatalf("accepted %d, want 4", n)
	}
	if r.Rejected() != 3 {
		t.Fatalf("Rejected = %d, want 3", r.Rejected())
	}
	if b.Len() != 3 {
		t.Fatalf("left in batch = %d, want 3", b.Len())
	}
	for i, p := range b.Packets() {
		if p.SeqNo != uint64(4+i) {
			t.Fatalf("overflow order broken at %d: SeqNo %d", i, p.SeqNo)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if p := r.Pop(); p == nil || p.SeqNo != i {
			t.Fatalf("ring order broken at %d: %v", i, p)
		}
	}

	r2 := NewRing(8)
	if n := r2.PushBatch(b); n != 3 {
		t.Fatalf("second PushBatch = %d, want 3", n)
	}
	if b.Len() != 0 {
		t.Fatalf("batch not emptied: %d", b.Len())
	}
	got := pkt.NewBatch(8)
	if n := r2.PopBatchInto(got, got.Cap()); n != 3 {
		t.Fatalf("PopBatchInto = %d, want 3", n)
	}
	for i, p := range got.Packets() {
		if p.SeqNo != uint64(4+i) {
			t.Fatalf("round-trip order broken at %d", i)
		}
	}
}

// TestRingDequeueBatch: a batch pop sized by the batch's capacity — the
// way PollDevice polls a receive ring — moves everything queued when it
// fits, and exactly a batch's worth when it does not.
func TestRingDequeueBatch(t *testing.T) {
	r := NewRing(64)
	for i := uint64(0); i < 10; i++ {
		r.Push(mark(i))
	}
	out := pkt.NewBatch(32)
	if n := r.PopBatchInto(out, out.Cap()); n != 10 {
		t.Fatalf("batch = %d, want 10", n)
	}
	for i, p := range out.Packets() {
		if p.SeqNo != uint64(i) {
			t.Fatalf("batch order broken at %d", i)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
	for i := uint64(0); i < 10; i++ {
		r.Push(mark(100 + i))
	}
	small := pkt.NewBatch(4)
	if n := r.PopBatchInto(small, small.Cap()); n != 4 {
		t.Fatalf("small batch = %d, want 4", n)
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d, want 6", r.Len())
	}
}

func TestRingPopBatchRespectsMax(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 10; i++ {
		r.Push(mark(uint64(i)))
	}
	b := pkt.NewBatch(16)
	if got := r.PopBatchInto(b, 3); got != 3 {
		t.Fatalf("PopBatchInto(max=3) = %d, want 3", got)
	}
	if got := r.PopBatchInto(b, 100); got != 7 {
		t.Fatalf("PopBatchInto(max=100) = %d, want remaining 7", got)
	}
}

// TestRingPopBatchSeesFreshTail: a batch pop whose cached tail snapshot
// is short of the request re-reads the tail, so it moves everything
// available — the NIC-poll semantics the simulator's descriptor rings
// rely on — instead of just what an earlier pop happened to observe.
func TestRingPopBatchSeesFreshTail(t *testing.T) {
	r := NewRing(16)
	r.Push(mark(0))
	r.Push(mark(1))
	if p := r.Pop(); p == nil || p.SeqNo != 0 { // snapshots tail = 2
		t.Fatalf("Pop = %v, want seq 0", p)
	}
	for i := uint64(2); i < 7; i++ {
		r.Push(mark(i))
	}
	b := pkt.NewBatch(8)
	if got := r.PopBatchInto(b, 8); got != 6 {
		t.Fatalf("PopBatchInto = %d, want all 6 queued", got)
	}
}

// TestRingSPSCStress runs a real producer goroutine against a real
// consumer goroutine — the configuration the handoff rings run in under
// a pipelined plan — and checks that every packet arrives exactly once
// and in order. Run it with -race: the cached-index fast path must not
// introduce unsynchronized access to the shared slots.
func TestRingSPSCStress(t *testing.T) {
	const total = 200000
	r := NewRing(256)
	var wg sync.WaitGroup
	wg.Add(2)

	go func() { // producer: mixed single and batch pushes
		defer wg.Done()
		batch := pkt.NewBatch(16)
		seq := uint64(0)
		for seq < total {
			if seq%3 == 0 {
				if r.Push(mark(seq)) {
					seq++
				} else {
					runtime.Gosched()
				}
				continue
			}
			batch.Reset()
			for i := 0; i < 16 && seq+uint64(i) < total; i++ {
				batch.Add(mark(seq + uint64(i)))
			}
			n := uint64(batch.Len())
			for batch.Len() > 0 {
				r.PushBatch(batch)
				if batch.Len() > 0 {
					runtime.Gosched()
				}
			}
			seq += n
		}
	}()

	errc := make(chan string, 1)
	go func() { // consumer: mixed single and batch pops
		defer wg.Done()
		out := pkt.NewBatch(32)
		next := uint64(0)
		idle := 0
		for next < total {
			var got []*pkt.Packet
			if next%5 == 0 {
				if p := r.Pop(); p != nil {
					got = []*pkt.Packet{p}
				}
			} else {
				out.Reset()
				if r.PopBatchInto(out, 32) > 0 {
					got = out.Packets()
				}
			}
			if len(got) == 0 {
				idle++
				if idle > 64 {
					runtime.Gosched()
				}
				continue
			}
			idle = 0
			for _, p := range got {
				if p.SeqNo != next {
					select {
					case errc <- "out of order":
					default:
					}
					return
				}
				next++
			}
		}
	}()

	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatalf("consumer: %s", msg)
	default:
	}
	if r.Len() != 0 {
		t.Fatalf("ring not drained: %s", r)
	}
}

// TestRingSPSCConcurrent: one producer and one consumer on separate
// goroutines, single-packet operations only, must transfer every packet
// exactly once, in order. Run with -race.
func TestRingSPSCConcurrent(t *testing.T) {
	const total = 200000
	r := NewRing(128)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; {
			if r.Push(mark(i)) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	got := make([]uint64, 0, total)
	go func() {
		defer wg.Done()
		for len(got) < total {
			if p := r.Pop(); p != nil {
				got = append(got, p.SeqNo)
			} else {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, s)
		}
	}
}

// TestRingFreeNeverOverstates checks the backpressure contract under
// concurrency: a producer that trusts Free() can never overflow.
func TestRingFreeNeverOverstates(t *testing.T) {
	const total = 100000
	r := NewRing(64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // consumer drains as fast as it can
		defer wg.Done()
		got := 0
		for got < total {
			out := pkt.NewBatch(16)
			n := r.PopBatchInto(out, 16)
			if n == 0 {
				runtime.Gosched()
			}
			got += n
		}
	}()
	sent := 0
	b := pkt.NewBatch(16)
	for sent < total {
		room := r.Free()
		if room == 0 {
			runtime.Gosched()
			continue
		}
		if room > 16 {
			room = 16
		}
		if sent+room > total {
			room = total - sent
		}
		b.Reset()
		for i := 0; i < room; i++ {
			b.Add(mark(uint64(sent + i)))
		}
		if got := r.PushBatch(b); got != room {
			t.Fatalf("PushBatch accepted %d of %d despite Free()=%d", got, room, room)
		}
		sent += room
	}
	wg.Wait()
	if r.Rejected() != 0 {
		t.Fatalf("Rejected = %d, want 0 under Free()-guarded production", r.Rejected())
	}
}

func BenchmarkRingHandoff(b *testing.B) {
	r := NewRing(1024)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		out := pkt.NewBatch(32)
		for {
			select {
			case <-stop:
				return
			default:
			}
			out.Reset()
			if r.PopBatchInto(out, 32) == 0 {
				runtime.Gosched()
			}
		}
	}()
	batch := pkt.NewBatch(32)
	pkts := make([]*pkt.Packet, 32)
	for i := range pkts {
		pkts[i] = mark(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset()
		for _, p := range pkts {
			batch.Add(p)
		}
		for batch.Len() > 0 {
			r.PushBatch(batch)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

func TestRingDrain(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Push(mark(uint64(i)))
	}
	var got []uint64
	n := r.Drain(func(p *pkt.Packet) { got = append(got, p.SeqNo) })
	if n != 5 || len(got) != 5 {
		t.Fatalf("Drain moved %d packets, want 5", n)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("Drain out of order: got %v", got)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after Drain: %d", r.Len())
	}
	if r.Drain(func(*pkt.Packet) { t.Fatal("callback on empty ring") }) != 0 {
		t.Fatal("Drain on empty ring reported packets")
	}
	// The ring stays usable afterwards.
	if !r.Push(mark(42)) || r.Pop().SeqNo != 42 {
		t.Fatal("ring unusable after Drain")
	}
}
