// Package trafficgen synthesizes the evaluation workloads of §5.1: fixed
// 64..1024 B packet streams and an Abilene-like trace.
//
// Substitution note (DESIGN.md §2): the paper replays the NLANR
// "Abilene-I" trace, which is no longer distributed. We synthesize a
// trace with (a) a trimodal packet-size mix whose mean (~738 B) matches
// the mean the paper's Abilene rates imply (24.6 Gbps NIC-limited
// forwarding, 4.45 Gbps IPsec), and (b) flow structure — a pool of
// concurrent flows sending in bursts — which is what the reordering
// experiment of §6.2 exercises.
package trafficgen

import (
	"math/rand"
	"net/netip"

	"routebricks/internal/pkt"
)

// SizeDist is a packet-size distribution.
type SizeDist struct {
	Name  string
	Sizes []int
	Probs []float64 // same length as Sizes; must sum to 1
}

// Fixed returns a degenerate distribution of one size.
func Fixed(size int) SizeDist {
	return SizeDist{Name: "fixed", Sizes: []int{size}, Probs: []float64{1}}
}

// AbileneMix is the synthetic Abilene-I stand-in: 44.68% minimum-size,
// 13% mid, 42.32% MTU frames; mean 738.3 B.
func AbileneMix() SizeDist {
	return SizeDist{
		Name:  "abilene",
		Sizes: []int{64, 576, 1500},
		Probs: []float64{0.4468, 0.13, 0.4232},
	}
}

// Mean reports the distribution's mean size in bytes.
func (d SizeDist) Mean() float64 {
	m := 0.0
	for i, s := range d.Sizes {
		m += float64(s) * d.Probs[i]
	}
	return m
}

func (d SizeDist) sample(rng *rand.Rand) int {
	r := rng.Float64()
	for i, p := range d.Probs {
		if r < p {
			return d.Sizes[i]
		}
		r -= p
	}
	return d.Sizes[len(d.Sizes)-1]
}

// Config parameterizes a Source.
type Config struct {
	Seed  int64
	Sizes SizeDist

	// ActiveFlows is the concurrent flow pool size (default 256).
	ActiveFlows int

	// MeanBurst is the mean number of back-to-back packets a flow emits
	// before the generator switches flows (geometric; default 8). Bursts
	// are what the flowlet mechanism latches onto.
	MeanBurst float64

	// MeanFlowPackets is the mean total packets per flow before it is
	// replaced by a fresh flow (geometric; default 64).
	MeanFlowPackets float64

	// RandomDst gives every packet an independently random destination
	// address — the paper's "random destination addresses so as to
	// stress cache locality for IP lookup" mode. Flow structure is
	// disabled when set.
	RandomDst bool

	// DstAddrs, when non-empty, restricts flow destinations to this pool.
	// Cluster experiments use it to aim traffic at specific output nodes
	// (each cluster node owns a prefix in the simulated FIB).
	DstAddrs []netip.Addr
}

// Source deterministically generates a packet stream.
type Source struct {
	cfg   Config
	rng   *rand.Rand
	flows []*flowState
	cur   int // index of flow currently bursting
	left  int // packets left in current burst
	seq   uint64
}

type flowState struct {
	src, dst netip.Addr
	sport    uint16
	dport    uint16
	remain   int
}

// New builds a source.
func New(cfg Config) *Source {
	if cfg.ActiveFlows <= 0 {
		cfg.ActiveFlows = 256
	}
	if cfg.MeanBurst <= 0 {
		cfg.MeanBurst = 8
	}
	if cfg.MeanFlowPackets <= 0 {
		cfg.MeanFlowPackets = 64
	}
	if len(cfg.Sizes.Sizes) == 0 {
		cfg.Sizes = Fixed(64)
	}
	s := &Source{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	for i := 0; i < cfg.ActiveFlows; i++ {
		s.flows = append(s.flows, s.newFlow())
	}
	return s
}

func (s *Source) newFlow() *flowState {
	dst := randAddr(s.rng)
	if len(s.cfg.DstAddrs) > 0 {
		dst = s.cfg.DstAddrs[s.rng.Intn(len(s.cfg.DstAddrs))]
	}
	return &flowState{
		src:    randAddr(s.rng),
		dst:    dst,
		sport:  uint16(1024 + s.rng.Intn(60000)),
		dport:  uint16([]int{80, 443, 53, 22, 8080}[s.rng.Intn(5)]),
		remain: 1 + geometric(s.rng, s.cfg.MeanFlowPackets),
	}
}

func randAddr(rng *rand.Rand) netip.Addr {
	v := rng.Uint32()
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// geometric draws a geometric variate with the given mean (≥1 draws).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for rng.Float64() > p && n < 1<<20 {
		n++
	}
	return n
}

// Next generates the next packet. Packets carry a globally increasing
// SeqNo, which is also monotonically increasing within each flow — the
// property the reordering meter keys on.
func (s *Source) Next() *pkt.Packet {
	size := s.cfg.Sizes.sample(s.rng)
	s.seq++

	if s.cfg.RandomDst {
		p := pkt.New(size, randAddr(s.rng), randAddr(s.rng),
			uint16(1024+s.rng.Intn(60000)), 80)
		p.SeqNo = s.seq
		return p
	}

	if s.left <= 0 {
		s.cur = s.rng.Intn(len(s.flows))
		s.left = geometric(s.rng, s.cfg.MeanBurst)
	}
	f := s.flows[s.cur]
	p := pkt.New(size, f.src, f.dst, f.sport, f.dport)
	p.SeqNo = s.seq
	s.left--
	f.remain--
	if f.remain <= 0 {
		s.flows[s.cur] = s.newFlow()
		s.left = 0
	}
	return p
}

// Batch generates n packets.
func (s *Source) Batch(n int) []*pkt.Packet {
	out := make([]*pkt.Packet, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}
