//go:build !linux || !(amd64 || arm64)

package netio

// Stub for platforms without the mmsg fast path: constructors fail so
// BatchReader/BatchWriter silently take the portable per-packet path,
// and the method bodies are unreachable.

import (
	"net"

	"routebricks/internal/pkt"
)

const mmsgSupported = false

type mmsgRx struct{}

func newMMsgRx(*net.UDPConn, Config) (*mmsgRx, error) { return nil, ErrNotSupported }

func (*mmsgRx) read(*pkt.Batch) (int, int, error) { return 0, 0, ErrNotSupported }

func (*mmsgRx) release(*pkt.PoolShard) {}

type mmsgTx struct{}

func newMMsgTx(*net.UDPConn, Config) (*mmsgTx, error) { return nil, ErrNotSupported }

func (*mmsgTx) write([]*pkt.Packet, *net.UDPAddr, []*net.UDPAddr) (int, int, int, error) {
	return 0, 0, 0, ErrNotSupported
}
