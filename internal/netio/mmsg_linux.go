//go:build linux && (amd64 || arm64)

package netio

// The recvmmsg/sendmmsg fast path. Zero dependencies beyond the stdlib:
// the two syscalls are issued through raw syscall.Syscall6 against the
// connection's descriptor, reached via syscall.RawConn so the Go
// runtime poller stays in charge — EAGAIN parks the goroutine on the
// poller (returning false from the Read/Write callback) instead of
// spinning, and a read deadline or Close wakes it exactly as it would a
// stdlib ReadFromUDP.
//
// Wire layout (see docs/netio.md for the full picture): each message is
// one struct mmsghdr = { struct msghdr; u32 msg_len } padded to the
// platform word. A receive msghdr carries one iovec pointing at a pool
// packet's backing array, or on a coalesced reader at a staging slot
// (with a UDP_GRO cmsg buffer on a GRO reader), and leaves msg_name nil
// (the datapath never looks at the source address). A send msghdr
// points msg_name at a sockaddr_in and carries one iovec per frame of a
// run: one frame, or
// up to 64 frames of one length to one destination under a UDP_SEGMENT
// cmsg, which the kernel segments back into datagrams (UDP GSO).

import (
	"net"
	"syscall"
	"unsafe"

	"routebricks/internal/pkt"
)

const mmsgSupported = true

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-written per-message byte count. Go pads the struct to the
// alignment of Msghdr (8 on 64-bit), matching the kernel's layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

func recvmmsg(fd uintptr, msgs []mmsghdr, flags int) (int, syscall.Errno) {
	r1, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&msgs[0])), uintptr(len(msgs)), uintptr(flags), 0, 0)
	return int(r1), e
}

func sendmmsg(fd uintptr, msgs []mmsghdr, flags int) (int, syscall.Errno) {
	r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&msgs[0])), uintptr(len(msgs)), uintptr(flags), 0, 0)
	return int(r1), e
}

// toRSA encodes a *net.UDPAddr as the sockaddr_in the kernel expects
// (port in network byte order regardless of host endianness).
func toRSA(a *net.UDPAddr, rsa *syscall.RawSockaddrInet4) bool {
	ip4 := a.IP.To4()
	if ip4 == nil {
		return false
	}
	rsa.Family = syscall.AF_INET
	port := (*[2]byte)(unsafe.Pointer(&rsa.Port))
	port[0] = byte(a.Port >> 8)
	port[1] = byte(a.Port)
	copy(rsa.Addr[:], ip4)
	return true
}

// mmsgRx is the receive state: Batch message slots, each permanently
// wired to one iovec, each iovec pointing at the pool packet currently
// posted in that slot. Slots hand their packet to the caller when
// filled and are re-posted with a fresh pool packet before the next
// syscall — the packet buffers ARE the receive buffers, which is what
// kills the staging-buffer copy.
type mmsgRx struct {
	rc    syscall.RawConn
	shard *pkt.PoolShard
	pkts  []*pkt.Packet
	msgs  []mmsghdr
	iovs  []syscall.Iovec
	max   int
}

func newMMsgRx(conn *net.UDPConn, cfg Config) (*mmsgRx, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	rx := &mmsgRx{
		rc:    rc,
		shard: cfg.Shard,
		pkts:  make([]*pkt.Packet, cfg.Batch),
		msgs:  make([]mmsghdr, cfg.Batch),
		iovs:  make([]syscall.Iovec, cfg.Batch),
		max:   cfg.MaxPacket,
	}
	for i := range rx.msgs {
		rx.msgs[i].hdr.Iov = &rx.iovs[i]
		rx.msgs[i].hdr.Iovlen = 1
	}
	return rx, nil
}

// post draws pool packets into every empty slot and re-aims the slot's
// iovec at the packet's backing array (pool recycling means a refilled
// slot's buffer is usually a different allocation than last time).
func (rx *mmsgRx) post(vlen int) {
	for i := 0; i < vlen; i++ {
		if rx.pkts[i] != nil {
			continue
		}
		p := rx.shard.GetRaw(rx.max)
		rx.pkts[i] = p
		rx.iovs[i].Base = &p.Data[0]
		rx.iovs[i].SetLen(rx.max)
	}
}

// read fills b with up to min(Batch, b's free capacity) datagrams in
// one recvmmsg, blocking on the runtime poller until at least one is
// available. A datagram the kernel clipped to max (MSG_TRUNC) is not
// delivered: its slot goes back to the shard and it counts only as
// truncated. Returns (delivered, truncated, error).
func (rx *mmsgRx) read(b *pkt.Batch) (int, int, error) {
	vlen := b.Cap() - b.Len()
	if vlen <= 0 {
		return 0, 0, nil
	}
	if vlen > len(rx.msgs) {
		vlen = len(rx.msgs)
	}
	rx.post(vlen)
	n, err := recvAll(rx.rc, rx.msgs[:vlen])
	if err != nil {
		return 0, 0, err
	}
	trunc := 0
	for i := 0; i < n; i++ {
		p := rx.pkts[i]
		rx.pkts[i] = nil
		if rx.msgs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			trunc++
			rx.shard.Put(p)
			continue
		}
		p.Data = p.Data[:rx.msgs[i].n]
		b.Add(p)
	}
	return n - trunc, trunc, nil
}

// recvAll fills msgs with one recvmmsg, parking on the runtime poller
// until at least one datagram is available, and returns how many came.
func recvAll(rc syscall.RawConn, msgs []mmsghdr) (int, error) {
	var n int
	var operr syscall.Errno
	err := rc.Read(func(fd uintptr) bool {
		for {
			m, errno := recvmmsg(fd, msgs, syscall.MSG_DONTWAIT)
			switch errno {
			case 0:
				n = m
				return true
			case syscall.EAGAIN:
				return false // park on the poller until readable
			case syscall.EINTR:
				continue
			default:
				operr = errno
				return true
			}
		}
	})
	if err == nil && operr != 0 {
		err = operr
	}
	return n, err
}

// UDP GRO (Linux 5.0+): with the socket option set, the kernel may
// deliver a run of equal-length datagrams, such as one UDP GSO send, as
// one buffer, and names the segment size in a cmsg of the same type.
const udpGRO = 104 // UDP_GRO, a socket option and cmsg type at level SOL_UDP

// groCmsg is room for one UDP_GRO control message: a cmsghdr and its
// int gso_size, padded to CMSG_SPACE(4).
type groCmsg struct {
	hdr syscall.Cmsghdr
	seg int32
	_   [4]byte
}

// coRx is the coalesced receive state: one message per staging slot of
// a splitter, its iovec wired to the slot for good, and on a GRO reader
// a cmsg buffer per message.
type coRx struct {
	rc    syscall.RawConn
	msgs  []mmsghdr
	iovs  []syscall.Iovec
	cmsgs []groCmsg // nil unless GRO
}

// newCoRx builds the receive state for sp's staging slots, setting
// UDP_GRO on the socket when gro asks for it; an error means the caller
// keeps the zero-copy path.
func newCoRx(conn *net.UDPConn, sp *splitter, gro bool) (*coRx, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	slots := len(sp.slots)
	co := &coRx{rc: rc, msgs: make([]mmsghdr, slots), iovs: make([]syscall.Iovec, slots)}
	for i := range co.msgs {
		co.iovs[i].Base = &sp.slots[i][0]
		co.iovs[i].SetLen(len(sp.slots[i]))
		co.msgs[i].hdr.Iov = &co.iovs[i]
		co.msgs[i].hdr.Iovlen = 1
	}
	if gro {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1)
		}); err != nil {
			return nil, err
		}
		if serr != nil {
			return nil, serr
		}
		co.cmsgs = make([]groCmsg, slots)
	}
	return co, nil
}

// read stages up to one datagram per slot with one recvmmsg, blocking
// on the runtime poller until at least one is available, and records
// each one's length and GRO segment size for sp to cut.
func (co *coRx) read(sp *splitter) error {
	for i := range co.cmsgs {
		h := &co.msgs[i].hdr
		h.Control = (*byte)(unsafe.Pointer(&co.cmsgs[i]))
		h.SetControllen(int(unsafe.Sizeof(co.cmsgs[i])))
	}
	n, err := recvAll(co.rc, co.msgs)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		m := &co.msgs[i]
		sp.lens[i], sp.segs[i] = int(m.n), 0
		if m.hdr.Flags&syscall.MSG_TRUNC != 0 {
			sp.lens[i] = -1
		}
		if co.cmsgs != nil && m.hdr.Controllen >= uint64(syscall.CmsgLen(4)) {
			if c := &co.cmsgs[i]; c.hdr.Level == syscall.IPPROTO_UDP && c.hdr.Type == udpGRO {
				sp.segs[i] = int(c.seg)
			}
		}
	}
	sp.staged(n)
	return nil
}

// release puts every still-posted receive buffer back on the pool.
func (rx *mmsgRx) release(shard *pkt.PoolShard) {
	for i, p := range rx.pkts {
		if p != nil {
			rx.pkts[i] = nil
			shard.Put(p)
		}
	}
}

// UDP GSO (Linux 4.18+): one message carries a run of datagrams for
// one destination, and the kernel cuts it into gso_size-byte segments
// as late on the output path as it can. The option is absent from the
// frozen syscall package.
const (
	udpSegment  = 103   // UDP_SEGMENT, a cmsg type at level SOL_UDP (= IPPROTO_UDP)
	maxGSOSegs  = 64    // UDP_MAX_SEGMENTS on 4.18–6.x kernels
	maxGSOBytes = 65507 // one UDP datagram's payload: 65535 − 20 B IPv4 − 8 B UDP
)

// segCmsg is one UDP_SEGMENT control message: a cmsghdr and its uint16
// gso_size, padded to CMSG_SPACE(2).
type segCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// mmsgTx is the send state: one iovec and one sockaddr_in per frame,
// and Batch message slots, each with its own UDP_SEGMENT cmsg.
type mmsgTx struct {
	rc    syscall.RawConn
	msgs  []mmsghdr
	iovs  []syscall.Iovec
	rsas  []syscall.RawSockaddrInet4
	cmsgs []segCmsg
	first []int // the frame msgs[m] starts at

	// gsoCeil is the segment size from which runs are no longer
	// coalesced. It starts above any datagram and drops to the segment
	// size of each run the kernel refuses.
	gsoCeil int
}

func newMMsgTx(conn *net.UDPConn, cfg Config) (*mmsgTx, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	tx := &mmsgTx{
		rc:      rc,
		msgs:    make([]mmsghdr, cfg.Batch),
		iovs:    make([]syscall.Iovec, cfg.Batch),
		rsas:    make([]syscall.RawSockaddrInet4, cfg.Batch),
		cmsgs:   make([]segCmsg, cfg.Batch),
		first:   make([]int, cfg.Batch),
		gsoCeil: maxGSOBytes + 1,
	}
	for i := range tx.cmsgs {
		c := &tx.cmsgs[i].hdr
		c.Level = syscall.IPPROTO_UDP
		c.Type = udpSegment
		c.SetLen(syscall.CmsgLen(2))
	}
	// A kernel before 4.18 ignores the cmsg and would send a run as one
	// long datagram. It lacks the socket option of the same name too, so
	// a socket that cannot read it never coalesces.
	var serr error
	if err := rc.Control(func(fd uintptr) {
		_, serr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
	}); err != nil || serr != nil {
		tx.gsoCeil = 0
	}
	return tx, nil
}

// plan lays frames k..nf-1 out as messages from slot m on and returns
// the slot after the last. A run — consecutive frames to one
// destination with the first frame's length, at most maxGSOSegs of
// them and maxGSOBytes in all, and possibly one shorter frame last (the
// kernel's rule for the final segment) — becomes one message whose iov
// array is the run's own iovecs and whose cmsg names the segment size.
// A run of one frame is a plain message without a cmsg.
func (tx *mmsgTx) plan(k, nf, m int) int {
	for ; k < nf; m++ {
		rsa := &tx.rsas[k]
		seg := int(tx.iovs[k].Len)
		j := k + 1
		if seg < tx.gsoCeil {
			for bytes := seg; j < nf && j-k < maxGSOSegs; j++ {
				ln := int(tx.iovs[j].Len)
				if ln > seg || bytes+ln > maxGSOBytes || tx.rsas[j] != *rsa {
					break
				}
				bytes += ln
				if ln < seg {
					j++ // a shorter frame closes the run
					break
				}
			}
		}
		h := &tx.msgs[m].hdr
		h.Name = (*byte)(unsafe.Pointer(rsa))
		h.Namelen = syscall.SizeofSockaddrInet4
		h.Iov = &tx.iovs[k]
		h.Iovlen = uint64(j - k)
		if j-k > 1 {
			tx.cmsgs[m].size = uint16(seg)
			h.Control = (*byte)(unsafe.Pointer(&tx.cmsgs[m]))
			h.SetControllen(syscall.CmsgSpace(2))
		} else {
			h.Control = nil
			h.SetControllen(0)
		}
		tx.first[m] = k
		k = j
	}
	return m
}

// gsoRefused reports whether errno is how a kernel or device turns down
// a UDP_SEGMENT message it would send as plain datagrams: no checksum
// offload, SO_NO_CHECK, a segment above the path MTU, or no support.
func gsoRefused(errno syscall.Errno) bool {
	switch errno {
	case syscall.EINVAL, syscall.EIO, syscall.ENOPROTOOPT, syscall.EOPNOTSUPP:
		return true
	}
	return false
}

// write sends every non-empty packet in ps (len(ps) ≤ Batch — the
// caller chunks) to addr, or to addrs[i] when scattering. Returns what
// send does.
func (tx *mmsgTx) write(ps []*pkt.Packet, addr *net.UDPAddr, addrs []*net.UDPAddr) (sent, sends, calls int, err error) {
	var dst syscall.RawSockaddrInet4
	if addr != nil && !toRSA(addr, &dst) {
		return 0, 0, 0, ErrNotSupported // non-IPv4 destination
	}
	nf := 0
	for i, p := range ps {
		if p == nil || len(p.Data) == 0 {
			continue
		}
		if addrs != nil && !toRSA(addrs[i], &dst) {
			return 0, 0, 0, ErrNotSupported
		}
		tx.load(nf, p.Data, &dst)
		nf++
	}
	return tx.send(nf)
}

// writeBundles sends bs (len(bs) ≤ Batch), each bundle buf[start:end]
// as one datagram to its destination. Returns what send does, the
// datagrams sent being bundles.
func (tx *mmsgTx) writeBundles(buf []byte, bs []bundle) (sent, sends, calls int, err error) {
	var dst syscall.RawSockaddrInet4
	for k, b := range bs {
		if !toRSA(b.dst, &dst) {
			return 0, 0, 0, ErrNotSupported
		}
		tx.load(k, buf[b.start:b.end], &dst)
	}
	return tx.send(len(bs))
}

// load aims frame slot k at data, bound for dst.
func (tx *mmsgTx) load(k int, data []byte, dst *syscall.RawSockaddrInet4) {
	tx.rsas[k] = *dst
	tx.iovs[k].Base = &data[0]
	tx.iovs[k].SetLen(len(data))
}

// send puts frame slots 0..nf-1 on the wire, each run as one message,
// looping on partial sends until every message is on the wire. A run
// the kernel refuses is re-sent as plain messages, and gsoCeil keeps
// its size from being coalesced again. Returns datagrams sent, messages
// sent and the sendmmsg calls that moved any.
func (tx *mmsgTx) send(nf int) (sent, sends, calls int, err error) {
	if nf == 0 {
		return 0, 0, 0, nil
	}
	nm := tx.plan(0, nf, 0)
	off := 0
	var operr syscall.Errno
	err = tx.rc.Write(func(fd uintptr) bool {
		for off < nm {
			n, errno := sendmmsg(fd, tx.msgs[off:nm], syscall.MSG_DONTWAIT)
			switch {
			case errno == 0:
				for i := off; i < off+n; i++ {
					sent += int(tx.msgs[i].hdr.Iovlen)
				}
				sends += n
				calls++
				off += n
			case errno == syscall.EAGAIN:
				return false // park until writable
			case errno == syscall.EINTR:
			case gsoRefused(errno) && tx.msgs[off].hdr.Iovlen > 1:
				// The kernel sent none of the refused run: re-plan from
				// its first frame below the lowered ceiling.
				tx.gsoCeil = int(tx.cmsgs[off].size)
				nm = tx.plan(tx.first[off], nf, off)
			default:
				operr = errno
				return true
			}
		}
		return true
	})
	if err == nil && operr != 0 {
		err = operr
	}
	return sent, sends, calls, err
}
