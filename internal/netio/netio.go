// Package netio is the batched kernel wire-I/O layer: it moves whole
// batches of UDP datagrams across the user/kernel boundary in one
// syscall, the last unbatched per-packet cost in the datapath. The
// paper's scaling argument (§3, §5.2) is that a software router runs at
// hardware speed only when per-packet book-keeping — above all the
// kernel crossing — is amortized over batches; dispatch, pools, rings,
// and placement already batch, and this package extends the discipline
// to the wire itself.
//
// Two implementations sit behind one interface, selected at runtime and
// reported by Mode():
//
//   - the Linux fast path issues recvmmsg(2)/sendmmsg(2) through raw
//     syscall.Syscall6 against the connection's file descriptor
//     (integrated with the runtime poller via syscall.RawConn, so a
//     parked read still honors deadlines and Close wakeups) — one
//     syscall receives or sends up to Config.Batch datagrams;
//   - the portable fallback moves one datagram per call through the
//     stdlib (net.UDPConn Read/WriteToUDP) with the identical
//     interface, so callers never branch on platform.
//
// Receive is zero-copy into the packet pool by default: BatchReader
// points the kernel's iovecs directly at pool-backed pkt.Packet buffers
// and trims each to the received length — no staging buffer, no
// per-datagram copy. A reader can instead receive coalesced datagrams
// (Config.Framing): UDP GRO buffers, which the kernel builds from runs
// of equal-length datagrams, or bundles of frames written by
// WriteBundles. It receives whole datagrams into a few staging slots
// and cuts each into pool packets, one copy per frame, so one syscall
// and one kernel receive walk carry many frames.
//
// BatchWriter flushes a whole batch to one destination (or a
// scatter of destinations) with one sendmmsg, and batches inside the
// kernel too: each run of equal-length frames to one destination goes
// out as one UDP GSO message, which the kernel walks down the output
// path as one buffer and segments as late as it can. A kernel that
// refuses GSO gets those frames as plain datagrams instead.
//
// ListenReusePort completes the multi-queue story: N sockets bound to
// one ingress port with SO_REUSEPORT are kernel-hashed receive queues —
// the kernel steers each 4-tuple consistently to one socket, so N
// BatchReaders are software RSS backed by real kernel steering. See
// docs/netio.md for how rbrouter runs one loop per queue.
package netio

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"routebricks/internal/pkt"
)

// ErrNotSupported is returned when the mmsg fast path or SO_REUSEPORT
// is requested on a platform that cannot provide it.
var ErrNotSupported = errors.New("netio: not supported on this platform")

// Available reports whether the recvmmsg/sendmmsg fast path exists on
// this platform (Linux on a supported architecture). Callers never need
// to check it — NewBatchReader/NewBatchWriter fall back silently — but
// benchmarks and stats use it to label what they measured.
func Available() bool { return mmsgSupported }

// Config parameterizes a BatchReader or BatchWriter.
type Config struct {
	// Batch is the maximum datagrams moved per syscall (KP). Default 32,
	// clamped to [1, 1024].
	Batch int

	// Shard is the pool shard receive buffers are drawn from (readers
	// only). Defaults to pkt.DefaultPool shard 0; long-lived readers
	// pass their own shard so allocation never contends across cores.
	Shard *pkt.PoolShard

	// MaxPacket is the receive buffer size per datagram. The mmsg path
	// drops a longer datagram and counts it in Stats.Truncated; the
	// fallback cannot tell and delivers it clipped. Default pkt.MaxSize.
	MaxPacket int

	// ForceFallback disables the mmsg fast path even where it is
	// available — the control tests and benchmarks compare against.
	ForceFallback bool

	// Framing is how a reader cuts received datagrams into frames
	// (readers only). The default, Datagrams, is one frame per datagram
	// with no copy; GRO and Bundles stage whole datagrams and copy each
	// frame out once.
	Framing Framing
}

func (c Config) normalized() Config {
	if c.Batch < 1 {
		c.Batch = 32
	}
	if c.Batch > 1024 {
		c.Batch = 1024
	}
	if c.MaxPacket <= 0 {
		c.MaxPacket = pkt.MaxSize
	}
	if c.Shard == nil {
		c.Shard = pkt.DefaultPool.Shard(0)
	}
	return c
}

// Stats is a point-in-time read of a reader's or writer's monotonic
// counters. Frames/Batches is the mean syscall fill — the number the
// whole layer exists to raise above 1 — and, for a writer,
// Frames/Sends is the mean UDP GSO run, the datagrams per message the
// kernel walked down its output path as one buffer. On a coalesced
// reader Frames/Coalesced is the frames per GRO buffer or per bundle,
// and on a writer Bundled/Bundles is the frames per bundle sent.
type Stats struct {
	Batches   uint64 // syscalls that moved at least one datagram
	Frames    uint64 // frames moved: datagrams, or frames cut from or packed into them
	Truncated uint64 // received frames dropped as longer than MaxPacket (mmsg path only)
	Malformed uint64 // received frames dropped with a bundle that failed its checks
	Coalesced uint64 // datagrams a coalesced reader received and cut (readers only)
	Sends     uint64 // messages handed to the kernel (writers only)
	Bundles   uint64 // bundles sent (writers only)
	Bundled   uint64 // frames those bundles carried (writers only)
}

// BatchReader receives UDP datagrams in batches directly into
// pool-backed packets. Not safe for concurrent use; one reader per
// goroutine (one per receive queue).
type BatchReader struct {
	conn *net.UDPConn
	cfg  Config
	rx   *mmsgRx   // zero-copy mmsg path; nil on the fallback or a coalesced reader
	co   *coRx     // coalesced mmsg receive into sp's slots
	sp   *splitter // non-nil on a coalesced reader, mmsg or fallback

	batches   atomic.Uint64
	frames    atomic.Uint64
	truncated atomic.Uint64
	malformed atomic.Uint64
	coalesced atomic.Uint64
}

// NewBatchReader wraps conn. The mmsg fast path is used when the
// platform provides it and cfg does not force the fallback; a conn
// whose descriptor cannot be reached (already closed) falls back too.
// A GRO reader whose socket refuses UDP_GRO, or that runs the
// fallback, reads plain datagrams (Framing reports which).
func NewBatchReader(conn *net.UDPConn, cfg Config) *BatchReader {
	cfg = cfg.normalized()
	r := &BatchReader{conn: conn, cfg: cfg}
	fast := mmsgSupported && !cfg.ForceFallback
	if fast && cfg.Framing != Datagrams {
		sp := newSplitter(cfg, min(coSlots, cfg.Batch))
		if co, err := newCoRx(conn, sp, cfg.Framing == GRO); err == nil {
			r.co, r.sp = co, sp
			return r
		}
	}
	if cfg.Framing == Bundles {
		r.sp = newSplitter(cfg, 1)
		return r
	}
	r.cfg.Framing = Datagrams
	if fast {
		if rx, err := newMMsgRx(conn, cfg); err == nil {
			r.rx = rx
		}
	}
	return r
}

// Mode reports which implementation this reader runs: "mmsg" or
// "fallback".
func (r *BatchReader) Mode() string {
	if r.rx != nil || r.co != nil {
		return "mmsg"
	}
	return "fallback"
}

// Framing reports the framing the reader runs, which is Datagrams where
// GRO was asked for but could not be set.
func (r *BatchReader) Framing() Framing { return r.cfg.Framing }

// Stats reads the reader's counters (safe concurrently with ReadBatch).
func (r *BatchReader) Stats() Stats {
	return Stats{Batches: r.batches.Load(), Frames: r.frames.Load(), Truncated: r.truncated.Load(),
		Malformed: r.malformed.Load(), Coalesced: r.coalesced.Load()}
}

// ReadBatch appends received datagrams to b — up to min(Config.Batch,
// b's free capacity) on the mmsg path, exactly one on the fallback path
// — and returns how many it appended. It blocks until at least one
// datagram is available, the conn's read deadline expires, or the conn
// is closed. Ownership of the appended packets (drawn from
// Config.Shard, trimmed to the received length) transfers to the
// caller.
//
// On the mmsg path a datagram longer than MaxPacket is not appended:
// its buffer returns to Config.Shard and it counts only in
// Stats.Truncated, so a call whose every datagram was too long returns
// 0 and a nil error. The fallback path cannot detect truncation; it
// appends such a datagram clipped to MaxPacket.
//
// A coalesced reader appends up to b's free capacity in frames. When
// the datagrams one receive staged hold more frames than that, the rest
// wait at a cursor, and the next call returns them without a syscall
// and without blocking. A frame longer than MaxPacket counts in
// Stats.Truncated; a bundle that fails its checks is dropped from the
// failing frame on, and the frames it still declared count in
// Stats.Malformed (a datagram that is no bundle at all counts one).
func (r *BatchReader) ReadBatch(b *pkt.Batch) (int, error) {
	if r.sp != nil {
		return r.readSplit(b)
	}
	if r.rx != nil {
		n, trunc, err := r.rx.read(b)
		r.truncated.Add(uint64(trunc))
		if n > 0 {
			r.batches.Add(1)
			r.frames.Add(uint64(n))
		}
		return n, err
	}
	if b.Full() {
		return 0, nil
	}
	p := r.cfg.Shard.GetRaw(r.cfg.MaxPacket)
	n, err := r.conn.Read(p.Data)
	if err != nil {
		r.cfg.Shard.Put(p)
		return 0, err
	}
	p.Data = p.Data[:n]
	b.Add(p)
	r.batches.Add(1)
	r.frames.Add(1)
	return 1, nil
}

// readSplit is ReadBatch on a coalesced reader.
func (r *BatchReader) readSplit(b *pkt.Batch) (int, error) {
	if b.Full() {
		return 0, nil
	}
	if !r.sp.pending() {
		var err error
		if r.co != nil {
			err = r.co.read(r.sp)
		} else {
			err = r.readSlot()
		}
		if err != nil {
			return 0, err
		}
		r.batches.Add(1)
		r.coalesced.Add(uint64(r.sp.n))
	}
	n, trunc, bad := r.sp.cut(b)
	r.frames.Add(uint64(n))
	r.truncated.Add(uint64(trunc))
	r.malformed.Add(uint64(bad))
	return n, nil
}

// readSlot stages one datagram through the stdlib: the fallback path of
// a bundle reader.
func (r *BatchReader) readSlot() error {
	n, err := r.conn.Read(r.sp.slots[0])
	if err != nil {
		return err
	}
	r.sp.lens[0] = n
	r.sp.staged(1)
	return nil
}

// Release returns the reader's cached receive buffers (mmsg slots that
// were posted to the kernel but never filled) to the pool. Call after
// the last ReadBatch; the reader must not be used again.
func (r *BatchReader) Release() {
	if r.rx != nil {
		r.rx.release(r.cfg.Shard)
	}
}

// BatchWriter sends UDP datagrams in batches. Not safe for concurrent
// use; one writer per goroutine (one per transmit queue).
type BatchWriter struct {
	conn *net.UDPConn
	cfg  Config
	tx   *mmsgTx // nil → fallback path
	bd   bundler

	batches atomic.Uint64
	frames  atomic.Uint64
	sends   atomic.Uint64
	bundles atomic.Uint64
	bundled atomic.Uint64
}

// NewBatchWriter wraps conn; path selection as for NewBatchReader.
func NewBatchWriter(conn *net.UDPConn, cfg Config) *BatchWriter {
	cfg = cfg.normalized()
	w := &BatchWriter{conn: conn, cfg: cfg}
	if mmsgSupported && !cfg.ForceFallback {
		if tx, err := newMMsgTx(conn, cfg); err == nil {
			w.tx = tx
		}
	}
	return w
}

// Mode reports which implementation this writer runs: "mmsg" or
// "fallback".
func (w *BatchWriter) Mode() string {
	if w.tx != nil {
		return "mmsg"
	}
	return "fallback"
}

// Stats reads the writer's counters (safe concurrently with writes).
func (w *BatchWriter) Stats() Stats {
	return Stats{Batches: w.batches.Load(), Frames: w.frames.Load(), Sends: w.sends.Load(),
		Bundles: w.bundles.Load(), Bundled: w.bundled.Load()}
}

// WriteBatch sends every non-nil packet in ps to addr — the whole slice
// with one sendmmsg on the fast path (chunked at Config.Batch), each run
// of equal-length frames as one UDP GSO message, and one WriteToUDP per
// packet on the fallback. It returns the number of datagrams handed to
// the kernel, however many messages carried them. The packets stay
// owned by the caller (the kernel copies at syscall time), so recycling
// them after return is safe.
func (w *BatchWriter) WriteBatch(ps []*pkt.Packet, addr *net.UDPAddr) (int, error) {
	return w.write(ps, addr, nil)
}

// WriteScatter is WriteBatch with a destination per packet: addrs[i]
// receives ps[i]. sendmmsg carries per-message addresses, so a scatter
// still costs one syscall per Config.Batch datagrams; a run coalesces
// only consecutive frames to one destination, so each destination still
// receives its frames in order.
func (w *BatchWriter) WriteScatter(ps []*pkt.Packet, addrs []*net.UDPAddr) (int, error) {
	if len(addrs) != len(ps) {
		return 0, fmt.Errorf("netio: %d packets but %d addresses", len(ps), len(addrs))
	}
	return w.write(ps, nil, addrs)
}

// WriteBundles is WriteScatter in bundles: it packs each destination's
// frames, in order, into bundles of at most BundleCap bytes, for a
// reader with Framing Bundles, and sends them all with one sendmmsg per
// Config.Batch bundles. It returns the frames the sent bundles carried.
// Nil and empty packets are skipped, as by WriteBatch.
func (w *BatchWriter) WriteBundles(ps []*pkt.Packet, addrs []*net.UDPAddr) (int, error) {
	if len(addrs) != len(ps) {
		return 0, fmt.Errorf("netio: %d packets but %d addresses", len(ps), len(addrs))
	}
	bs := w.bd.pack(ps, addrs, BundleCap)
	sent := 0
	for off := 0; off < len(bs); off += w.cfg.Batch {
		chunk := bs[off:min(off+w.cfg.Batch, len(bs))]
		var n, sends, calls int
		var err error
		if w.tx != nil {
			n, sends, calls, err = w.tx.writeBundles(w.bd.buf, chunk)
		} else {
			for _, b := range chunk {
				if _, err = w.conn.WriteToUDP(w.bd.buf[b.start:b.end], b.dst); err != nil {
					break
				}
				n++
			}
			sends, calls = n, n
		}
		frames := 0
		for _, b := range chunk[:n] {
			frames += b.frames
		}
		sent += frames
		w.batches.Add(uint64(calls))
		w.frames.Add(uint64(frames))
		w.sends.Add(uint64(sends))
		w.bundles.Add(uint64(n))
		w.bundled.Add(uint64(frames))
		if err != nil {
			return sent, err
		}
	}
	return sent, nil
}

func (w *BatchWriter) write(ps []*pkt.Packet, addr *net.UDPAddr, addrs []*net.UDPAddr) (int, error) {
	sent := 0
	if w.tx != nil {
		for off := 0; off < len(ps); off += w.cfg.Batch {
			end := off + w.cfg.Batch
			if end > len(ps) {
				end = len(ps)
			}
			var chunk []*net.UDPAddr
			if addrs != nil {
				chunk = addrs[off:end]
			}
			n, sends, calls, err := w.tx.write(ps[off:end], addr, chunk)
			if n > 0 {
				sent += n
				w.batches.Add(uint64(calls))
				w.frames.Add(uint64(n))
				w.sends.Add(uint64(sends))
			}
			if err != nil {
				return sent, err
			}
		}
		return sent, nil
	}
	for i, p := range ps {
		if p == nil {
			continue
		}
		to := addr
		if addrs != nil {
			to = addrs[i]
		}
		if _, err := w.conn.WriteToUDP(p.Data, to); err != nil {
			return sent, err
		}
		sent++
		w.batches.Add(1)
		w.frames.Add(1)
		w.sends.Add(1)
	}
	return sent, nil
}

// ListenReusePort binds queues UDP sockets to one address with
// SO_REUSEPORT — kernel-hashed receive queues: the kernel steers each
// 4-tuple consistently to one socket, so one BatchReader per returned
// conn is multi-queue receive with flow affinity. addr may name port 0;
// the remaining sockets bind the port the first one got. queues == 1
// degenerates to a plain ListenUDP everywhere; queues > 1 returns
// ErrNotSupported off Linux.
func ListenReusePort(network, addr string, queues int) ([]*net.UDPConn, error) {
	if queues < 1 {
		queues = 1
	}
	if queues == 1 {
		ua, err := net.ResolveUDPAddr(network, addr)
		if err != nil {
			return nil, err
		}
		c, err := net.ListenUDP(network, ua)
		if err != nil {
			return nil, err
		}
		return []*net.UDPConn{c}, nil
	}
	return listenReusePort(network, addr, queues)
}
