package click

import "sort"

// StateClass declares what kind of mutable state an element carries —
// the property that decides whether the planner may clone it per chain.
// A parallel (or replicated pipelined) plan instantiates the whole
// graph once per chain, so an element's state is silently split N ways;
// whether that is correct depends entirely on what the state keys on:
//
//   - Stateless: no state, or per-instance counters whose clones
//     aggregate correctly (a packet counter, an LPM miss counter).
//     Always safe to clone.
//   - PerFlow: state keyed by flow (reassembly buffers, per-flow
//     counters). Safe to clone exactly when the feeder steers
//     flow-consistently — every packet of a flow reaches the same
//     chain — because then each clone owns a disjoint flow set.
//   - Shared: state that must be process-global (a learned ARP table,
//     a token bucket shaping one link, an AQM average over one queue).
//     Never safe to clone; the element pins its graph to one chain.
type StateClass int

const (
	// Stateless elements (or clone-aggregable counters) — safe anywhere.
	Stateless StateClass = iota
	// PerFlow elements need flow-consistent steering to be cloned.
	PerFlow
	// Shared elements pin the graph to a single chain.
	Shared
)

// String names the class as docs and -print-graph render it.
func (c StateClass) String() string {
	switch c {
	case Stateless:
		return "stateless"
	case PerFlow:
		return "per-flow"
	case Shared:
		return "shared"
	}
	return "unknown"
}

// StateClassifier is implemented by elements that carry state. Elements
// that don't implement it are Stateless — the right default for the
// majority, and harness/test elements keep working unchanged.
type StateClassifier interface {
	StateClass() StateClass
}

// StateClassOf reports an element's declared state class.
func StateClassOf(e Element) StateClass {
	if sc, ok := e.(StateClassifier); ok {
		return sc.StateClass()
	}
	return Stateless
}

// StateClasses maps every element of the instance's graph to its class.
func (in *Instance) StateClasses() map[string]StateClass {
	out := make(map[string]StateClass)
	for name, e := range in.router.elements {
		out[name] = StateClassOf(e)
	}
	return out
}

// ElementsOfClass lists the instance's elements of one class, sorted —
// what plan gating and -print-graph verdicts name in their output.
func (in *Instance) ElementsOfClass(class StateClass) []string {
	var out []string
	for name, c := range in.StateClasses() {
		if c == class {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
