package main

// `rbrouter -mesh topo.json -mesh-id K` runs this process as ONE member
// of a multi-process VLB cluster — the §6 RB4 story with real process
// boundaries. The topology file (written by cmd/rbmesh or by hand)
// assigns each member four addresses: a data port for inter-node mesh
// frames, a control port for membership heartbeats, an external port
// for line traffic, and a TCP address for the member's admin API.
//
// The control plane (internal/mesh) heartbeats every peer and walks the
// suspect→dead state machine. Crossing the dead boundary — a peer dies,
// or a dead peer rejoins — re-stripes the data plane: the node publishes
// the new live vector (nd.restripe), frames routed to a dead peer drain
// into tx_drained from then on, and each chain's VLB balancer re-divides
// the R/n quota over the live members before its next batch. No plan is
// swapped: the program and placement in force keep running. The
// re-stripe generation is advertised in subsequent heartbeats, so
// cluster-wide convergence is observable from any member's /api/v1/mesh.
//
// SIGHUP reloads -config (nd.hup) under the requested -placement, so
// -placement auto re-decides its rule for the new program.

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"routebricks"
	"routebricks/internal/cluster"
	"routebricks/internal/mesh"
	"routebricks/internal/netio"
)

// run parses the command line and runs this process as one mesh member
// until SIGTERM or SIGINT; -print-graph renders the program and exits.
func run() error {
	var (
		topoPath, configPath, placement string
		self, cores                     int
		flowlets, fallback, printGraph  bool
	)
	flag.StringVar(&topoPath, "mesh", "", "run as ONE member of the mesh defined by this topology file (see cmd/rbmesh); requires -mesh-id")
	flag.IntVar(&self, "mesh-id", -1, "this process's member id in the -mesh topology")
	flag.BoolVar(&flowlets, "flowlets", true, "enable flowlet reordering avoidance")
	flag.IntVar(&cores, "cores", 1, "datapath cores, each owning one SO_REUSEPORT ingress socket")
	flag.StringVar(&placement, "placement", "parallel", "core allocation: parallel, pipelined, or auto (parallel unless an element's state pins the graph to one pipelined chain)")
	flag.StringVar(&configPath, "config", "", "Click-language ingress program, re-read on SIGHUP (default: embedded IP router config)")
	flag.BoolVar(&fallback, "wire-fallback", false, "force the portable per-packet syscall path instead of recvmmsg/sendmmsg batching")
	flag.BoolVar(&printGraph, "print-graph", false, "print the ingress element graph as Graphviz dot and exit")
	flag.Parse()
	cfgText, err := readProgram(configPath)
	if err != nil {
		return err
	}
	if printGraph {
		pipe, err := routebricks.Load(cfgText, routebricks.Options{Prebound: printPrebound})
		if err != nil {
			return err
		}
		fmt.Print(pipe.DOT())
		printStateClasses(os.Stderr, pipe)
		return nil
	}
	if topoPath == "" {
		flag.Usage()
		return errors.New("-mesh is required: rbrouter runs one mesh member (cmd/rbmesh runs a cluster)")
	}

	// SIGHUP is caught from here on: left to its default action, it
	// terminates the process. One that arrives during start-up waits for
	// the datapath.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	if cores < 1 || cores > 64 {
		return fmt.Errorf("cores must be in [1,64]")
	}
	kind, err := parsePlacement(placement)
	if err != nil {
		return err
	}
	topo, err := mesh.LoadTopology(topoPath)
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
	if kind == routebricks.Auto {
		fmt.Printf("rbrouter[%d]: placement\n%s", self, nd.ingress.Describe())
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
	go func() {
		for range hup {
			if err := nd.hup(configPath); err != nil {
				fmt.Fprintf(os.Stderr, "rbrouter[%d]: reload: %v; the old datapath keeps forwarding\n", self, err)
				continue
			}
			fmt.Printf("rbrouter[%d]: reloaded the ingress program (generation %d)\n", self, nd.ingress.Generation())
		}
	}()

	// The membership control plane. OnChange fires only across the dead
	// boundary (death or rejoin) — a suspect peer keeps its VLB share,
	// because demoting on every scheduling hiccup would churn the mesh.
	// The callback is serialized by the mesh node, so nd.restripe has one
	// writer.
	var ctrl *mesh.Node
	onChange := func(ev mesh.Event) {
		gen := nd.restripe(ev.Live)
		ctrl.SetGeneration(gen)
		fmt.Printf("rbrouter[%d]: re-stripe generation %d (%d/%d members live)\n", self, gen, ctrl.Tracker().AliveCount(), n)
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

	ln, err := net.Listen("tcp", me.API)
	if err != nil {
		nd.shutdown()
		return fmt.Errorf("bind api %s: %w", me.API, err)
	}
	srv := &http.Server{Handler: newAdminMux(nd, ctrl)}
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
	fmt.Printf("rbrouter[%d]: shutdown complete — forwarded %d, egressed %d, tx-drained %d, tx-errors %d\n",
		self, nd.forwarded.Load(), nd.egressed.Load(), nd.txDrained.Load(), nd.txErrors.Load())
	return nil
}
