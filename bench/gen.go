package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"syscall"
	"time"

	"routebricks/internal/netio"
	"routebricks/internal/pkt"
	"routebricks/internal/stats"
)

// Load shape. The closed-loop window is far below the routers' 4096-slot
// rings and 4 MB socket buffers, so a frame that does not come back was
// dropped by a router, not by the harness.
const (
	windowClosed = 512 // frames in flight, closed loop
	burstClosed  = 32  // frames per send, closed loop
	burstOpen    = 8   // frames per scheduled send, open loop
	openLoopPPS  = 50000

	// lossTimeout is how long the sink may stay silent with frames in
	// flight before they are written off as lost and the window reopens.
	lossTimeout = 100 * time.Millisecond

	// Every srcCheckEvery-th receive takes one datagram through the
	// stdlib instead of the batch reader, because only that path reports
	// the datagram's source port.
	srcCheckEvery = 64

	sockBuf = 4 << 20
)

// generator is the benchmark's single send-and-receive goroutine: it
// sends seed-built frames to the members' ext ports and receives what
// the mesh delivers on the topology sink, over one loopback socket and
// the same netio batch calls the routers use.
type generator struct {
	conn  *net.UDPConn
	r     *netio.BatchReader
	w     *netio.BatchWriter
	shard *pkt.PoolShard
	rb    *pkt.Batch
	one   []byte // single-datagram buffer for the source-port check

	fs      *frameSet
	ext     []*net.UDPAddr // per member: where its line traffic goes in
	extPort []int
	cursor  int      // next frame of the set to send
	seq     []uint64 // per flow: next sequence number
	burst   []*pkt.Packet
	dests   []*net.UDPAddr
	epoch   time.Time

	// Whole-run counters, from the first frame to the end of the drain.
	sentFast     uint64
	sentByKind   [numKinds]uint64
	recv         uint64
	declaredLost uint64
	recvCalls    uint64
	srcChecked   uint64
	reorder      *stats.ReorderMeter
	violations   uint64
	firstErrs    []string

	// Measured window. Throughput counts frames by arrival time; loss
	// and latency follow the frames stamped inside the window, wherever
	// they arrive, so a frame still in flight when the window closes is
	// late, not lost. The window is cut into slices of sliceLen: the
	// reported throughput and latency are medians over the slices, which
	// a disturbed second cannot move.
	winStart, winEnd int64 // ns since epoch
	sentStamped      uint64
	recvStamped      uint64
	slices           []genSlice
	lag              []uint32 // ns the open-loop schedule ran late, one per burst in the window
}

// genSlice is one sliceLen of the measured window.
type genSlice struct {
	recv, bytes uint64   // frames that arrived in the slice
	lat         []uint32 // ns, one per frame stamped in the slice
}

func newGenerator(fs *frameSet) (*generator, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	conn.SetReadBuffer(sockBuf)
	conn.SetWriteBuffer(sockBuf)
	shard := pkt.DefaultPool.Shard(1)
	g := &generator{
		conn:     conn,
		shard:    shard,
		r:        netio.NewBatchReader(conn, netio.Config{Shard: shard}),
		w:        netio.NewBatchWriter(conn, netio.Config{}),
		rb:       pkt.NewBatch(64),
		one:      make([]byte, 2048),
		fs:       fs,
		seq:      make([]uint64, fs.flows),
		epoch:    time.Now(),
		reorder:  stats.NewReorderMeter(),
		winStart: math.MaxInt64,
		winEnd:   math.MaxInt64,
	}
	return g, nil
}

// addMember registers the next member's ext address: where frames whose
// ingress is that member are sent, and the port its egress must come from.
func (g *generator) addMember(ext string) error {
	ua, err := net.ResolveUDPAddr("udp4", ext)
	if err != nil {
		return err
	}
	g.ext = append(g.ext, ua)
	g.extPort = append(g.extPort, ua.Port)
	return nil
}

func (g *generator) close() {
	g.r.Release()
	g.conn.Close()
}

func (g *generator) sinkAddr() string { return g.conn.LocalAddr().String() }

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

func (g *generator) inflight() int64 {
	return int64(g.sentFast) - int64(g.recv) - int64(g.declaredLost)
}

func (g *generator) violate(err error) {
	g.violations++
	if len(g.firstErrs) < 5 {
		g.firstErrs = append(g.firstErrs, err.Error())
	}
}

// sendBurst puts the next n frames of the set on the wire in one
// scatter write, each to its ingress member, stamped with its flow's
// next sequence number and dueNs.
func (g *generator) sendBurst(n int, dueNs int64) error {
	g.burst, g.dests = g.burst[:0], g.dests[:0]
	inWindow := dueNs >= g.winStart && dueNs < g.winEnd
	for i := 0; i < n; i++ {
		f := &g.fs.frames[g.cursor]
		if g.cursor++; g.cursor == len(g.fs.frames) {
			g.cursor = 0
		}
		g.sentByKind[f.kind]++
		if f.kind == fastPath {
			g.seq[f.flow]++
			stamp(f.p, g.seq[f.flow], dueNs)
			g.sentFast++
			if inWindow {
				g.sentStamped++
			}
		}
		g.burst = append(g.burst, f.p)
		g.dests = append(g.dests, g.ext[f.ingress])
	}
	sent, err := g.w.WriteScatter(g.burst, g.dests)
	if err != nil {
		return fmt.Errorf("generator send: %w", err)
	}
	if sent != n {
		return fmt.Errorf("generator send: kernel took %d of %d frames", sent, n)
	}
	return nil
}

// receive waits until deadline for delivered frames and checks each
// one. It reports how many arrived; running into the deadline is not an
// error.
func (g *generator) receive(deadline time.Time) (int, error) {
	g.conn.SetReadDeadline(deadline)
	g.recvCalls++
	if g.recvCalls%srcCheckEvery == 0 {
		n, from, err := g.conn.ReadFromUDPAddrPort(g.one)
		if err != nil {
			return 0, deadlineOK(err)
		}
		if owner, ok := g.handle(g.one[:n], g.now()); ok {
			g.srcChecked++
			if int(from.Port()) != g.extPort[owner] {
				g.violate(fmt.Errorf("frame for member %d's prefix left from UDP port %d, its ext port is %d",
					owner, from.Port(), g.extPort[owner]))
			}
		}
		return 1, nil
	}
	g.rb.Reset()
	n, err := g.r.ReadBatch(g.rb)
	now := g.now()
	for _, p := range g.rb.Packets() {
		g.handle(p.Data, now)
	}
	g.shard.PutBatch(g.rb)
	if err != nil {
		return n, deadlineOK(err)
	}
	return n, nil
}

func deadlineOK(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return nil
	}
	return fmt.Errorf("generator receive: %w", err)
}

// handle verifies one delivered frame and books it. It returns the
// member that owns the frame's destination.
func (g *generator) handle(d []byte, now int64) (owner int, ok bool) {
	del, err := g.fs.verifyDelivered(d)
	if err != nil {
		g.violate(err)
		return 0, false
	}
	f := &g.fs.frames[del.idx]
	g.recv++
	g.reorder.Observe(uint64(f.flow), del.seq)
	if sl := g.sliceAt(now); sl != nil {
		sl.recv++
		sl.bytes += uint64(len(d))
	}
	if sl := g.sliceAt(del.dueNs); sl != nil {
		g.recvStamped++
		sl.lat = append(sl.lat, uint32(min(now-del.dueNs, math.MaxUint32)))
	}
	return f.owner, true
}

// sliceAt returns the slice of the measured window that t falls in, or
// nil outside the window.
func (g *generator) sliceAt(t int64) *genSlice {
	if t < g.winStart || t >= g.winEnd {
		return nil
	}
	i := int((t - g.winStart) / int64(sliceLen))
	for len(g.slices) <= i {
		g.slices = append(g.slices, genSlice{})
	}
	return &g.slices[i]
}

// closedLoop keeps windowClosed frames in flight for d: a burst goes out
// whenever the window has room, so a slow router is offered less.
// Latency is timed from the send.
func (g *generator) closedLoop(d time.Duration) error {
	end := g.now() + int64(d)
	for g.now() < end {
		for g.inflight()+burstClosed <= windowClosed {
			if err := g.sendBurst(burstClosed, g.now()); err != nil {
				return err
			}
		}
		n, err := g.receive(time.Now().Add(lossTimeout))
		if err != nil {
			return err
		}
		if n == 0 {
			g.declaredLost += uint64(max(g.inflight(), 0))
		}
	}
	return nil
}

// openLoop sends a burst every burstOpen/pps seconds for d, whatever
// comes back. Frames are stamped with the time they were due, not the
// time they left, so a generator stall counts against the frames it
// delayed; how late each burst left is kept as lag.
func (g *generator) openLoop(d time.Duration, pps int) error {
	interval := int64(time.Second) * burstOpen / int64(pps)
	due := g.now()
	end := due + int64(d)
	for {
		now := g.now()
		if now >= end {
			return nil
		}
		if now >= due {
			if due >= g.winStart && due < g.winEnd {
				g.lag = append(g.lag, uint32(min(now-due, math.MaxUint32)))
			}
			if err := g.sendBurst(burstOpen, due); err != nil {
				return err
			}
			due += interval
			continue
		}
		if _, err := g.receive(g.epoch.Add(time.Duration(due))); err != nil {
			return err
		}
	}
}

// drain receives until nothing is in flight or the sink has been silent
// for three loss timeouts.
func (g *generator) drain() error {
	for quiet := 0; g.inflight() > 0 && quiet < 3; {
		n, err := g.receive(time.Now().Add(lossTimeout))
		if err != nil {
			return err
		}
		if n == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
	return nil
}

func (g *generator) beginWindow() { g.winStart = g.now() }
func (g *generator) endWindow()   { g.winEnd = g.now() }

// selfCPU is the benchmark process's own user+system CPU so far.
func selfCPU() (user, sys float64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}
