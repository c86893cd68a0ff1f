package main

// Mesh mode: `rbrouter -mesh topo.json -mesh-id K` runs this process as
// ONE member of a multi-process VLB cluster — the §6 RB4 story with
// real process boundaries instead of goroutines in one address space.
// The topology file (written by cmd/rbmesh or by hand) assigns each
// member four addresses: a data port for inter-node mesh frames, a
// control port for membership heartbeats, an external port for line
// traffic, and a TCP address for the member's admin API.
//
// The control plane (internal/mesh) heartbeats every peer and walks the
// suspect→dead state machine. Crossing the dead boundary — a peer dies,
// or a dead peer rejoins — re-stripes the data plane: the new live
// vector is installed on the node, the ingress pipeline reloads under
// the drain barrier (in-flight packets finish or drain into accounted
// counters; nothing is silently lost), and the rebuilt VLB balancers
// spread the R/n quota across the members that are actually alive. The
// re-stripe generation is advertised in subsequent heartbeats, so
// cluster-wide convergence is observable from any member's /api/v1/mesh.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/cluster"
	"routebricks/internal/mesh"
	"routebricks/internal/netio"
)

func runMesh(path string, self int, cfgText string, flowlets bool, cores int, kind click.PlanKind, autoPlace, fallback bool) error {
	topo, err := mesh.LoadTopology(path)
	if err != nil {
		return err
	}
	n := len(topo.Members)
	if self < 0 || self >= n {
		return fmt.Errorf("mesh-id must be in [0,%d), got %d", n, self)
	}
	me := topo.Members[self]

	// Same FIB convention as every other deployment: node d owns
	// 10.d.0.0/16, seeded as generation 1. Routes can be churned live
	// through this member's /api/v1/routes.
	fib, err := routebricks.NewFIB(cluster.SeedRoutes(n)...)
	if err != nil {
		return err
	}
	if autoPlace {
		probe, err := probePlacement(cfgText, fib, cores)
		if err != nil {
			return fmt.Errorf("auto placement calibration: %w", err)
		}
		kind = probe.Placement()
		fmt.Printf("rbrouter[%d]: placement %s\n", self, describeDecision(probe))
	}

	bind := func(what, addr string) (*net.UDPConn, error) {
		ua, err := net.ResolveUDPAddr("udp4", addr)
		if err != nil {
			return nil, fmt.Errorf("%s address %s: %w", what, addr, err)
		}
		c, err := net.ListenUDP("udp4", ua)
		if err != nil {
			return nil, fmt.Errorf("bind %s %s: %w", what, addr, err)
		}
		return c, nil
	}
	// The external port binds one SO_REUSEPORT socket per core —
	// kernel-hashed receive queues on the member's line port.
	exts, err := netio.ListenReusePort("udp4", me.Ext, cores)
	if err != nil {
		return fmt.Errorf("bind ext %s: %w", me.Ext, err)
	}
	data, err := bind("data", me.Data)
	if err != nil {
		return err
	}

	nd, err := newNodeOnConns(self, n, exts, data, fib, cfgText, flowlets, cores, kind, fallback)
	if err != nil {
		return err
	}
	for j, m := range topo.Members {
		if j == self {
			continue
		}
		if nd.peers[j], err = net.ResolveUDPAddr("udp4", m.Data); err != nil {
			return fmt.Errorf("peer %d data address: %w", j, err)
		}
	}
	if topo.Sink != "" {
		if nd.sink, err = net.ResolveUDPAddr("udp4", topo.Sink); err != nil {
			return fmt.Errorf("sink address: %w", err)
		}
	}
	if err := nd.start(); err != nil {
		return err
	}

	// The membership control plane. OnChange fires only across the dead
	// boundary (death or rejoin) — a suspect peer keeps its VLB share,
	// because demoting on every scheduling hiccup would churn the mesh.
	// The callback is serialized by the mesh node, so re-stripes never
	// overlap.
	var ctrl *mesh.Node
	onChange := func(ev mesh.Event) {
		nd.setLive(ev.Live)
		if err := nd.reload(cfgText, kind); err != nil {
			fmt.Fprintf(os.Stderr, "rbrouter[%d]: re-stripe reload: %v\n", self, err)
			return
		}
		gen := nd.restripes.Add(1)
		ctrl.SetGeneration(gen)
		alive := 0
		for _, l := range ev.Live {
			if l {
				alive++
			}
		}
		fmt.Printf("rbrouter[%d]: re-stripe generation %d (%d/%d members live)\n", self, gen, alive, n)
	}
	ctrl, err = mesh.NewNode(mesh.NodeConfig{
		Self:     self,
		Topology: topo,
		OnChange: onChange,
		Logf: func(format string, args ...any) {
			fmt.Printf("rbrouter[%d]: "+format+"\n", append([]any{self}, args...)...)
		},
	})
	if err != nil {
		nd.shutdown()
		return err
	}

	replanAll := func() error {
		probe, err := probePlacement(cfgText, fib, cores)
		if err != nil {
			return err
		}
		return nd.replan(probe.Placement())
	}
	ln, err := net.Listen("tcp", me.API)
	if err != nil {
		nd.shutdown()
		return fmt.Errorf("bind api %s: %w", me.API, err)
	}
	srv := &http.Server{Handler: newAdminMux([]*node{nd}, fib, replanAll, ctrl)}
	go srv.Serve(ln)

	ctrl.Start()
	fmt.Printf("rbrouter[%d]: mesh member up — data %s ctrl %s ext %s api http://%s/api/v1/{stats,mesh,routes}\n",
		self, me.Data, me.Ctrl, me.Ext, ln.Addr())

	// SIGTERM/SIGINT is the graceful exit: stop heartbeating (peers will
	// detect the death and re-stripe around us) and halt the socket
	// loops, each of which flushes what it holds before it exits.
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM, os.Interrupt)
	<-term
	signal.Stop(term)
	fmt.Printf("rbrouter[%d]: signal received, draining\n", self)
	srv.Close()
	ctrl.Stop()
	nd.shutdown()
	fmt.Printf("rbrouter[%d]: shutdown complete — forwarded %d, egressed %d, tx-drained %d\n",
		self, nd.forwarded.Load(), nd.egressed.Load(), nd.txDrained.Load())
	return nil
}
