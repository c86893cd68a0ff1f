package click

import "fmt"

// This file is the graph-first pipeline abstraction. A Program describes
// a whole Click element graph — parsed from Click text or built in code —
// together with the per-chain instantiation protocol the placement
// planner needs: Instantiate(chain) stamps out one independent copy of
// the graph, with prebound resources (route tables, device rings,
// per-chain VLB balancers) resolved for that chain. The planner then
// derives the parallel execution from the graph's topology instead of
// requiring the user to pre-linearize their pipeline into stages:
//
//   - the entry element (where poll tasks inject traffic) is the unique
//     element with no incoming connections;
//   - the trunk is the maximal chain of elements linked output-0 →
//     input-0 with no other way in — the path every forwarded packet
//     takes, and the only place a Pipelined plan may cut the graph
//     across cores;
//   - side branches (check[1] -> Discard, rt[1] -> ICMPError -> ...)
//     stay on the core of the trunk element that feeds them, wired by
//     the ordinary synchronous batch binding. A branch
//     shared by several trunk elements pins those elements to one core
//     (cutting between them would let two cores push into one element
//     concurrently).

// Program is a graph-first pipeline description: how to build one
// independent copy of an element graph per chain. The Parallel plan
// instantiates it once per core, the Pipelined plan once per chain;
// single-core hosts call Instantiate(0) and drive the graph directly.
type Program struct {
	// Build returns a fresh, independent Router graph for the given
	// chain. It must not share mutable element instances between calls:
	// each chain's graph runs on its own core. Per-chain resources
	// (balancers, counters, prebound tables) are resolved here, keyed on
	// chain.
	Build func(chain int) (*Router, error)

	// Entry optionally names the graph's entry element. When empty the
	// unique element with no incoming connections is used; graphs where
	// that is ambiguous (several sources, or a cycle through every
	// element) must name it.
	Entry string
}

// NewProgram wraps a graph builder. The entry element is auto-detected;
// set Entry on the returned Program to override.
func NewProgram(build func(chain int) (*Router, error)) *Program {
	return &Program{Build: build}
}

// ParseProgram builds a Program from Click-language text. reg resolves
// element classes; prebound, when non-nil, supplies the ready-made
// instances for one chain — it is called once per Instantiate, so
// chain-scoped resources (a per-core balancer, a per-core device ring)
// come out right by construction. The text is parsed afresh per chain,
// which is what guarantees the copies share nothing.
func ParseProgram(text string, reg Registry, prebound func(chain int) map[string]Element) *Program {
	return &Program{Build: func(chain int) (*Router, error) {
		var pb map[string]Element
		if prebound != nil {
			pb = prebound(chain)
		}
		return ParseConfig(text, reg, pb)
	}}
}

// Instance is one materialized per-chain copy of a Program's graph:
// elements built, intra-graph connections wired synchronously, and the
// trunk identified so the planner knows where it may cut.
type Instance struct {
	router *Router
	segs   []Element // trunk elements in graph order
	names  []string  // display name per segment
	noCut  []bool    // noCut[i]: boundary between seg i and i+1 must stay on one core
}

// Router returns the instance's element graph.
func (in *Instance) Router() *Router { return in.router }

// Entry returns the element poll tasks inject traffic into.
func (in *Instance) Entry() Element { return in.segs[0] }

// Exit returns the last trunk element — where a Sink attaches.
func (in *Instance) Exit() Element { return in.segs[len(in.segs)-1] }

// Segments returns the trunk element names in order.
func (in *Instance) Segments() []string {
	out := make([]string, len(in.names))
	copy(out, in.names)
	return out
}

// Instantiate stamps out chain's independent copy of the graph.
func (pr *Program) Instantiate(chain int) (*Instance, error) {
	if pr.Build == nil {
		return nil, fmt.Errorf("click: program has no Build function")
	}
	r, err := pr.Build(chain)
	if err != nil {
		return nil, fmt.Errorf("click: program chain %d: %w", chain, err)
	}
	if r == nil {
		return nil, fmt.Errorf("click: program chain %d: Build returned nil router", chain)
	}
	return analyzeRouter(r, pr.Entry)
}

// analyzeRouter derives the placement topology of a wired graph: entry,
// trunk, and the cut constraints imposed by shared side branches.
func analyzeRouter(r *Router, entryName string) (*Instance, error) {
	if len(r.order) == 0 {
		return nil, fmt.Errorf("click: program graph has no elements")
	}
	incoming := make(map[string]int, len(r.order))
	// port0[from] is from's output-0 connection; Connect guarantees at
	// most one connection per output port.
	port0 := make(map[string]conn, len(r.order))
	adj := make(map[string][]conn, len(r.order))
	for _, c := range r.conns {
		incoming[c.to]++
		adj[c.from] = append(adj[c.from], c)
		if c.fromPort == 0 {
			port0[c.from] = c
		}
	}

	entry := entryName
	if entry == "" {
		var candidates []string
		for _, name := range r.order {
			if incoming[name] == 0 {
				candidates = append(candidates, name)
			}
		}
		switch len(candidates) {
		case 1:
			entry = candidates[0]
		case 0:
			return nil, fmt.Errorf("click: program has no entry (every element has an incoming connection); name one with Entry")
		default:
			return nil, fmt.Errorf("click: program entry is ambiguous (%v have no incoming connections); name one with Entry", candidates)
		}
	} else if r.Get(entry) == nil {
		return nil, fmt.Errorf("click: program entry %q is not in the graph", entry)
	}

	// Trunk walk: follow output-0 edges while the next element's only
	// way in is that edge. A merge (incoming > 1), a cycle back into the
	// trunk, or a dangling/absent output 0 ends the trunk; everything
	// beyond hangs off the final segment.
	trunk := []string{entry}
	trunkIdx := map[string]int{entry: 0}
	// edgeNoCut[i] marks the boundary after trunk[i] as uncuttable for
	// edge-level reasons (the trunk edge targets a non-zero input port,
	// so a handoff ring — which re-enters at port 0 — would misdeliver).
	var edgeNoCut []bool
	for cur := entry; ; {
		c, ok := port0[cur]
		if !ok {
			break
		}
		next := c.to
		if _, seen := trunkIdx[next]; seen || incoming[next] != 1 {
			break
		}
		edgeNoCut = append(edgeNoCut, c.toPort != 0)
		trunkIdx[next] = len(trunk)
		trunk = append(trunk, next)
		cur = next
	}

	in := &Instance{
		router: r,
		segs:   make([]Element, len(trunk)),
		names:  trunk,
		noCut:  edgeNoCut,
	}
	for i, name := range trunk {
		in.segs[i] = r.elements[name]
	}

	// Side-branch constraints: every non-trunk element reachable from
	// trunk[i] runs on trunk[i]'s core (it is wired synchronously). If
	// one element is reachable from trunk[i] and trunk[j], i < j, no cut
	// may separate i from j — two cores would push into it concurrently.
	// Likewise a back-edge into trunk[j] (a cycle, or a branch rejoining
	// upstream) pins the pusher's segment to trunk[j]'s core.
	forbid := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		for k := a; k < b; k++ {
			in.noCut[k] = true
		}
	}
	reachLo := make(map[string]int)
	reachHi := make(map[string]int)
	for i, name := range trunk {
		next := ""
		if i+1 < len(trunk) {
			next = trunk[i+1]
		}
		var stack []string
		seen := map[string]bool{}
		push := func(c conn, fromTrunk bool) {
			// Skip the trunk edge itself; all other edges lead sideways.
			if fromTrunk && c.fromPort == 0 && c.to == next {
				return
			}
			if j, isTrunk := trunkIdx[c.to]; isTrunk {
				// An edge back into the trunk: whoever pushes it runs on
				// trunk[i]'s core, so i and j must share a group.
				forbid(i, j)
				return
			}
			if !seen[c.to] {
				seen[c.to] = true
				stack = append(stack, c.to)
			}
		}
		for _, c := range adj[name] {
			push(c, true)
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := reachLo[x]; !ok {
				reachLo[x] = i
			}
			reachHi[x] = i
			for _, c := range adj[x] {
				push(c, false)
			}
		}
	}
	for x, lo := range reachLo {
		forbid(lo, reachHi[x])
	}
	return in, nil
}

// cuttableGroups reports the maximum number of contiguous groups the
// trunk can be split into under the noCut constraints.
func cuttableGroups(noCut []bool) int {
	g := 1
	for _, forbidden := range noCut {
		if !forbidden {
			g++
		}
	}
	return g
}

// chooseBounds splits n trunk segments into g contiguous groups, cutting
// only at allowed boundaries and keeping the groups as even as the
// constraints permit. It returns the g+1 boundary indices. The caller
// guarantees g <= cuttableGroups(noCut).
func chooseBounds(n, g int, noCut []bool) []int {
	// allowed[k] is a boundary index b: a cut after segment b.
	var allowed []int
	for b := 0; b < n-1; b++ {
		if !noCut[b] {
			allowed = append(allowed, b)
		}
	}
	bounds := make([]int, 0, g+1)
	bounds = append(bounds, 0)
	next := 0 // next candidate index into allowed
	for k := 1; k < g; k++ {
		// Ideal start of group k is k*n/g; the cut boundary before it is
		// ideal-1. Snap to the nearest allowed boundary that still leaves
		// enough allowed boundaries for the remaining g-1-k cuts.
		ideal := k*n/g - 1
		best := next
		for next+1 < len(allowed)-(g-1-k) && abs(allowed[next+1]-ideal) <= abs(allowed[best]-ideal) {
			next++
			best = next
		}
		bounds = append(bounds, allowed[best]+1)
		next++
	}
	bounds = append(bounds, n)
	return bounds
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
