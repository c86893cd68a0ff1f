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
// Receive is zero-copy into the packet pool: BatchReader points the
// kernel's iovecs directly at pool-backed pkt.Packet buffers and trims
// each to the received length — no staging buffer, no per-datagram
// copy. BatchWriter flushes a whole batch to one destination (or a
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

	// MaxPacket is the receive buffer size per datagram; longer
	// datagrams are truncated to it (counted in Stats.Truncated on the
	// mmsg path). Default pkt.MaxSize.
	MaxPacket int

	// ForceFallback disables the mmsg fast path even where it is
	// available — the control tests and benchmarks compare against.
	ForceFallback bool
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
// kernel walked down its output path as one buffer.
type Stats struct {
	Batches   uint64 // syscalls that moved at least one datagram
	Frames    uint64 // datagrams moved
	Truncated uint64 // received datagrams clipped to MaxPacket (mmsg path only)
	Sends     uint64 // messages handed to the kernel (writers only)
}

// BatchReader receives UDP datagrams in batches directly into
// pool-backed packets. Not safe for concurrent use; one reader per
// goroutine (one per receive queue).
type BatchReader struct {
	conn *net.UDPConn
	cfg  Config
	rx   *mmsgRx // nil → fallback path

	batches   atomic.Uint64
	frames    atomic.Uint64
	truncated atomic.Uint64
}

// NewBatchReader wraps conn. The mmsg fast path is used when the
// platform provides it and cfg does not force the fallback; a conn
// whose descriptor cannot be reached (already closed) falls back too.
func NewBatchReader(conn *net.UDPConn, cfg Config) *BatchReader {
	cfg = cfg.normalized()
	r := &BatchReader{conn: conn, cfg: cfg}
	if mmsgSupported && !cfg.ForceFallback {
		if rx, err := newMMsgRx(conn, cfg); err == nil {
			r.rx = rx
		}
	}
	return r
}

// Mode reports which implementation this reader runs: "mmsg" or
// "fallback".
func (r *BatchReader) Mode() string {
	if r.rx != nil {
		return "mmsg"
	}
	return "fallback"
}

// Stats reads the reader's counters (safe concurrently with ReadBatch).
func (r *BatchReader) Stats() Stats {
	return Stats{Batches: r.batches.Load(), Frames: r.frames.Load(), Truncated: r.truncated.Load()}
}

// ReadBatch appends received datagrams to b — up to min(Config.Batch,
// b's free capacity) on the mmsg path, exactly one on the fallback path
// — and returns how many arrived. It blocks until at least one datagram
// is available, the conn's read deadline expires, or the conn is
// closed. Ownership of the appended packets (drawn from Config.Shard,
// trimmed to the received length) transfers to the caller.
func (r *BatchReader) ReadBatch(b *pkt.Batch) (int, error) {
	if r.rx != nil {
		n, trunc, err := r.rx.read(b)
		if n > 0 {
			r.batches.Add(1)
			r.frames.Add(uint64(n))
			r.truncated.Add(uint64(trunc))
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

	batches atomic.Uint64
	frames  atomic.Uint64
	sends   atomic.Uint64
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
	return Stats{Batches: w.batches.Load(), Frames: w.frames.Load(), Sends: w.sends.Load()}
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
