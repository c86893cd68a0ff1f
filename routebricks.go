// Package routebricks is a Go reproduction of "RouteBricks: Exploiting
// Parallelism To Scale Software Routers" (Dobrescu et al., SOSP 2009).
//
// RouteBricks scales a software router by parallelizing across servers —
// a cluster of commodity machines switching packets with Direct Valiant
// Load Balancing over a full mesh — and within servers — multi-queue
// NICs, one core per queue, one core per packet, and batched descriptor
// processing.
//
// This package is the public facade over the implementation. Its
// centerpiece is the graph-first pipeline API: write the router once,
// in the Click configuration language, and Load derives the parallel
// execution —
//
//	pipe, err := routebricks.Load(`
//	    check :: CheckIPHeader;
//	    rt    :: LPMLookup(fib);
//	    ttl   :: DecIPTTL;
//	    check[0] -> rt;     check[1] -> drops;
//	    rt[0]    -> ttl;    rt[1]    -> drops;
//	    ttl[0]   -> out;    ttl[1]   -> drops;
//	`, routebricks.Options{
//	    Cores:     4,
//	    Placement: routebricks.Parallel, // or Pipelined
//	    Prebound: func(chain int) map[string]routebricks.Element {
//	        return map[string]routebricks.Element{
//	            "fib":   elements.NewLPMLookup(table), // per-chain resources
//	            "out":   newMySink(chain),
//	            "drops": &elements.Discard{},
//	        }
//	    },
//	})
//	if err != nil { ... }
//	pipe.Start()                       // one goroutine per core
//	pipe.Push(chain, packet)           // feed the per-chain input rings
//	fmt.Println(pipe.Describe())       // which graph segments run where
//	pipe.Stop()
//
// The graph is instantiated once per chain with prebound resources
// resolved per chain, so a Parallel placement gives every core an
// independent copy of the whole graph ("one core per queue, one core
// per packet", §4.2) while a Pipelined placement cuts the graph's
// trunk across cores wherever its topology allows, joined by lock-free
// SPSC handoff rings (internal/exec). docs/click-language.md documents
// the accepted syntax subset; see TestLoadEquivalence for the
// placement-independence contract.
//
// The pipeline is a live control plane, not a build-once artifact:
//
//   - Placement: routebricks.Auto makes the §4.2 allocation a rule over
//     the graph's state classes: Parallel, unless an element holds state
//     cloning would split (a Shared Shaper or ESPEncap), in which case
//     one Pipelined chain. The decision names those elements in Describe
//     and Snapshot.Decision.
//   - pipe.Reload(newText, opts) hot-swaps the program under a drain
//     barrier — in-flight packets are stepped out, the new plan
//     installs atomically, prebound resources carry over — with zero
//     loss (TestReloadEquivalence); pipe.Reload(pipe.Program(), opts)
//     re-places the current program the same way. cmd/rbrouter wires
//     Reload to SIGHUP.
//   - pipe.Snapshot() unifies observability: plan kind + generation,
//     per-core counters, per-ring depth/capacity/backpressure, live-FIB
//     generation and route count, and per-element counters in one typed,
//     JSON-ready value; Snapshot.Delta(prev) yields rates. cmd/rbrouter
//     serves it under its versioned /api/v1 admin API.
//   - Options.FIB binds a live route table (NewFIB) to the Click name
//     `fib`: an RCU generation-swapped DIR-24-8 engine whose routes can
//     be added and withdrawn while every core forwards at full rate.
//     Writers batch adds and withdraws into single commits
//     (RouteAdmin.Update); readers pin one complete snapshot per packet
//     batch, so a batch never straddles two generations and no reader
//     ever observes a partially updated table. The handle is inherited
//     across Reload like Prebound, and pipe.Routes() returns
//     it for admin surfaces — cmd/rbrouter's /api/v1/routes is exactly
//     that. An explicitly prebound `fib` instance still wins, preserving
//     the old contract.
//
// The rest of the facade:
//
//   - Cluster / RB4: the parallel router (internal/cluster), simulated on
//     virtual time over a calibrated model of the paper's Nehalem servers;
//     its per-node pipelines are stamped from the same click.Program
//     mechanism Load uses.
//   - ServerSpec and the workload model (internal/hw): the bottleneck
//     analysis of §5, with every constant derived from the paper.
//   - Experiments: regenerators for every table and figure (internal/
//     experiments); see EXPERIMENTS.md for paper-vs-measured values.
//   - BenchmarkPlacement drives the Click-text forwarding path through
//     Load at 1–8 cores under both placements and tracks the measured
//     parallel-vs-pipelined crossover against the paper's Fig. 5.
//
// Simulation quick start:
//
//	c, err := routebricks.RB4()             // 4-node Direct VLB mesh
//	if err != nil { ... }
//	w := routebricks.Workload{
//	    OfferedBpsPerNode: 2e9,
//	    Sizes:             routebricks.AbileneMix(),
//	    ExcludeSelf:       true,
//	    Duration:          10 * routebricks.Millisecond,
//	}
//	w.Apply(c)
//	c.Run(w.Duration + routebricks.Millisecond)
//	c.Drain(20 * routebricks.Millisecond)
//	fmt.Println(c.Meter)                    // reordering statistics
//
// See the examples directory for runnable programs (examples/clickfile
// is the Load walkthrough), cmd/rbrouter for the real-UDP mesh member
// that serves -config file.click programs (cmd/rbmesh runs N of them),
// and cmd/rbbench for the full
// evaluation harness.
package routebricks

import (
	"routebricks/internal/cluster"
	"routebricks/internal/experiments"
	"routebricks/internal/hw"
	"routebricks/internal/sim"
	"routebricks/internal/trafficgen"
)

// Cluster is a running RouteBricks cluster simulation.
type Cluster = cluster.Cluster

// ClusterConfig parameterizes a cluster.
type ClusterConfig = cluster.Config

// Workload drives paced traffic into a cluster.
type Workload = cluster.Workload

// ServerSpec describes a modeled server generation.
type ServerSpec = hw.Spec

// SizeDist is a packet-size distribution.
type SizeDist = trafficgen.SizeDist

// Time is a virtual-time instant/duration in nanoseconds.
type Time = sim.Time

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewCluster builds a cluster from an explicit configuration.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// RB4 builds the paper's prototype: 4 Nehalem nodes, full mesh, Direct
// VLB with flowlet reordering avoidance, kp=32/kn=16 batching.
func RB4() (*Cluster, error) { return cluster.New(cluster.RB4Config()) }

// RB4Config returns the prototype configuration for customization.
func RB4Config() ClusterConfig { return cluster.RB4Config() }

// Nehalem returns the paper's evaluation server model.
func Nehalem() ServerSpec { return hw.Nehalem() }

// Xeon returns the shared-bus comparison server model.
func Xeon() ServerSpec { return hw.Xeon() }

// AbileneMix returns the synthetic Abilene-I packet-size mix.
func AbileneMix() SizeDist { return trafficgen.AbileneMix() }

// FixedSize returns a single-size packet distribution.
func FixedSize(bytes int) SizeDist { return trafficgen.Fixed(bytes) }

// Experiment regenerates one table or figure of the evaluation.
type Experiment = experiments.Experiment

// Experiments lists every table/figure regenerator in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID finds a single experiment ("table1", "fig8", ...).
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }
