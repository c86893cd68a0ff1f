package mesh

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Event is delivered to NodeConfig.OnChange when the live member set
// changes — a peer died or (re)joined. Transitions lists what fired;
// Live is the full membership vector after applying them.
type Event struct {
	Live        []bool
	Transitions []Transition
}

// NodeConfig parameterizes a control-plane Node.
type NodeConfig struct {
	Self     int
	Topology Topology

	// Conn, when non-nil, is a pre-bound control socket (tests);
	// otherwise the node binds Topology.Members[Self].Ctrl.
	Conn *net.UDPConn

	// OnChange is called — serialized, from a control goroutine — when
	// the live member set changes. The callback owns re-striping; it
	// must not block for long (heartbeating pauses while it runs, so it
	// must finish well inside SuspectAfter — rbrouter's only publishes
	// the new live vector).
	OnChange func(Event)

	// Logf, when set, receives membership transitions for the operator
	// log.
	Logf func(format string, args ...any)
}

// Node runs one member's control plane: a heartbeat loop pinging every
// peer, a receive loop answering pings and folding every observation
// into the Tracker, and change notification when the dead-boundary of
// the membership moves. The data plane never blocks on any of this —
// membership is advisory input to re-striping, not a per-packet check.
type Node struct {
	cfg     NodeConfig
	tracker *Tracker
	conn    *net.UDPConn
	peers   []*net.UDPAddr

	incarnation uint64
	gen         atomic.Uint64 // advertised re-stripe generation
	seq         atomic.Uint64

	changeMu sync.Mutex // serializes OnChange across goroutines

	stop atomic.Bool
	wg   sync.WaitGroup

	sentPings atomic.Uint64
	recvPings atomic.Uint64
	recvAcks  atomic.Uint64
	badMsgs   atomic.Uint64
}

// NewNode builds the control plane for member self of the topology. The
// control socket is bound immediately; Start launches the loops.
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Topology.Members) {
		return nil, fmt.Errorf("mesh: self %d out of range (%d members)", cfg.Self, len(cfg.Topology.Members))
	}
	n := &Node{
		cfg:         cfg,
		conn:        cfg.Conn,
		incarnation: uint64(time.Now().UnixNano()),
	}
	if n.conn == nil {
		addr, err := net.ResolveUDPAddr("udp4", cfg.Topology.Members[cfg.Self].Ctrl)
		if err != nil {
			return nil, fmt.Errorf("mesh: control address: %w", err)
		}
		if n.conn, err = net.ListenUDP("udp4", addr); err != nil {
			return nil, fmt.Errorf("mesh: bind control port: %w", err)
		}
	}
	for i, m := range cfg.Topology.Members {
		if i == cfg.Self {
			n.peers = append(n.peers, nil)
			continue
		}
		addr, err := net.ResolveUDPAddr("udp4", m.Ctrl)
		if err != nil {
			n.conn.Close()
			return nil, fmt.Errorf("mesh: peer %d control address: %w", i, err)
		}
		n.peers = append(n.peers, addr)
	}
	n.tracker = NewTracker(TrackerConfig{
		Self:         cfg.Self,
		N:            len(cfg.Topology.Members),
		SuspectAfter: cfg.Topology.SuspectAfter(),
		DeadAfter:    cfg.Topology.DeadAfter(),
	}, time.Now())
	return n, nil
}

// Tracker exposes the underlying state machine (status rendering).
func (n *Node) Tracker() *Tracker { return n.tracker }

// Incarnation is this process's incarnation number (unix nanos at
// construction) — how peers tell a restart from a network blip.
func (n *Node) Incarnation() uint64 { return n.incarnation }

// SetGeneration publishes the local re-stripe generation; subsequent
// heartbeats advertise it, so peers (and the aggregate snapshot) can
// watch the cluster converge after a membership change.
func (n *Node) SetGeneration(g uint64) { n.gen.Store(g) }

// Generation reports the advertised re-stripe generation.
func (n *Node) Generation() uint64 { return n.gen.Load() }

// Start launches the heartbeat and receive loops.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.runHeartbeat()
	go n.runReceive()
}

// Stop halts the loops and closes the control socket.
func (n *Node) Stop() {
	if n.stop.Swap(true) {
		return
	}
	n.wg.Wait()
	n.conn.Close()
}

// runHeartbeat pings every peer each interval, then advances the
// failure detector and reports any dead-boundary movement.
func (n *Node) runHeartbeat() {
	defer n.wg.Done()
	interval := n.cfg.Topology.Heartbeat()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	n.pingAll() // first hello immediately, not an interval later
	for !n.stop.Load() {
		<-tick.C
		n.pingAll()
		now := time.Now()
		if trs := n.tracker.Tick(now); len(trs) != 0 {
			n.report(trs)
		}
	}
}

// pingAll sends one heartbeat to every peer.
func (n *Node) pingAll() {
	now := time.Now()
	for _, addr := range n.peers {
		if addr == nil {
			continue
		}
		msg := Encode(Message{
			Kind:        MsgPing,
			From:        n.cfg.Self,
			Incarnation: n.incarnation,
			Gen:         n.gen.Load(),
			Seq:         n.seq.Add(1),
			SentNanos:   now.UnixNano(),
		})
		n.conn.WriteToUDP(msg, addr)
		n.sentPings.Add(1)
	}
}

// runReceive answers pings and folds every message into the tracker.
func (n *Node) runReceive() {
	defer n.wg.Done()
	buf := make([]byte, 256)
	for !n.stop.Load() {
		n.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		k, from, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			continue // deadline or shutdown
		}
		m, err := Decode(buf[:k])
		if err != nil {
			n.badMsgs.Add(1)
			continue
		}
		now := time.Now()
		if tr, ok := n.tracker.Observe(m.From, m, now); ok {
			n.report([]Transition{tr})
		}
		switch m.Kind {
		case MsgPing:
			n.recvPings.Add(1)
			ack := Encode(Message{
				Kind:        MsgAck,
				From:        n.cfg.Self,
				Incarnation: n.incarnation,
				Gen:         n.gen.Load(),
				Seq:         m.Seq,
				SentNanos:   m.SentNanos, // echo: the pinger computes RTT on its own clock
			})
			n.conn.WriteToUDP(ack, from)
		case MsgAck:
			n.recvAcks.Add(1)
			n.tracker.ObserveRTT(m.From, time.Duration(now.UnixNano()-m.SentNanos))
		}
	}
}

// report logs transitions and fires OnChange when the live set moved
// (a suspect peer coming back, or escalating to suspect, changes no
// striping — only crossing the dead boundary does).
func (n *Node) report(trs []Transition) {
	deadBoundary := false
	for _, tr := range trs {
		if n.cfg.Logf != nil {
			n.cfg.Logf("mesh: peer %d %s → %s%s", tr.Peer, tr.From, tr.To,
				map[bool]string{true: " (rejoin)", false: ""}[tr.Rejoined])
		}
		if tr.From == StateDead || tr.To == StateDead || tr.Rejoined {
			deadBoundary = true
		}
	}
	if !deadBoundary || n.cfg.OnChange == nil {
		return
	}
	n.changeMu.Lock()
	defer n.changeMu.Unlock()
	n.cfg.OnChange(Event{Live: n.tracker.Live(), Transitions: trs})
}

// Status is the /api/v1/mesh document: this member's identity and
// protocol config, the current membership table, and control-plane
// counters.
type Status struct {
	Self        int     `json:"self"`
	Members     int     `json:"members"`
	Alive       int     `json:"alive"`
	Incarnation uint64  `json:"incarnation"`
	Generation  uint64  `json:"generation"` // local re-stripe generation
	HeartbeatMs float64 `json:"heartbeat_ms"`
	SuspectMs   float64 `json:"suspect_after_ms"`
	DeadMs      float64 `json:"dead_after_ms"`

	SentPings uint64 `json:"sent_pings"`
	RecvPings uint64 `json:"recv_pings"`
	RecvAcks  uint64 `json:"recv_acks"`
	BadMsgs   uint64 `json:"bad_msgs,omitempty"`

	Peers []PeerStatus `json:"peers"`
}

// Status renders the current membership view.
func (n *Node) Status() Status {
	t := n.cfg.Topology
	return Status{
		Self:        n.cfg.Self,
		Members:     len(t.Members),
		Alive:       n.tracker.AliveCount(),
		Incarnation: n.incarnation,
		Generation:  n.gen.Load(),
		HeartbeatMs: float64(t.Heartbeat()) / float64(time.Millisecond),
		SuspectMs:   float64(t.SuspectAfter()) / float64(time.Millisecond),
		DeadMs:      float64(t.DeadAfter()) / float64(time.Millisecond),
		SentPings:   n.sentPings.Load(),
		RecvPings:   n.recvPings.Load(),
		RecvAcks:    n.recvAcks.Load(),
		BadMsgs:     n.badMsgs.Load(),
		Peers:       n.tracker.Peers(time.Now()),
	}
}
