// Package click is a modular packet-processing framework in the style of
// the Click modular router (Kohler et al., TOCS 2000), which RouteBricks
// uses as its programming environment. A router is a directed graph of
// elements; packets are pushed along connections by synchronous calls, so
// an element graph compiles down to plain function calls — the property
// that makes Click's per-packet overhead small enough for the paper's
// 1033-instruction forwarding path.
//
// Differences from C++ Click, chosen deliberately:
//
//   - Push-only. Pull paths and schedulable Queues are replaced by
//     explicit NIC transmit rings (exec.Ring), which is how the
//     paper's configurations are structured anyway (PollDevice → ... →
//     ToDevice).
//   - Static thread assignment is explicit: tasks (polling loops) are
//     bound to cores at configuration time, enforcing the paper's "one
//     core per queue" rule by construction.
//   - Elements charge virtual CPU cycles to the Context; the simulation
//     harness converts those into time on the modeled server.
//   - Dispatch is batch-native. Poll tasks pull a kp-packet pkt.Batch
//     from their receive ring and push the whole batch through the graph
//     with one call per hop (§4.2's poll batching made a code path, not
//     just a cost-model divisor). Every output port has one binding, a
//     BatchOutput: Connect binds a BatchElement's PushBatch directly and
//     unrolls the batch into Push calls for a per-packet element, and
//     Out sends a single packet as a batch of one. A batch-native
//     element keeps its logic in PushBatch only; its Push is PushOne.
//
// # Ownership discipline
//
// Exactly one owner per packet at any time. Pushing a packet — via
// Push, Out, PushBatch, or OutBatch — transfers ownership downstream:
// the pusher must not touch the packet again. An element that
// terminates a packet's life (Discard, a drop on a full transmit ring,
// a fragment the Reassembler absorbed) is the sole owner at that moment
// and returns the buffer with Context.Recycle, into the running core's
// pool shard; everything upstream has already let go. Batch containers
// are different: OutBatch hands the *packets* downstream but returns
// the emptied Batch to the caller, so a poll task reuses one Batch for
// its whole lifetime, and Out's batches of one come from a stack on the
// Context. Elements that filter a batch do it in place with Take/Drop +
// Compact before forwarding, never by allocating a new container.
package click

import (
	"fmt"
	"sort"
	"time"

	"routebricks/internal/pkt"
)

// Context rides along each push call chain. It accumulates the virtual
// cycle cost of the work performed and exposes the virtual clock to
// elements that timestamp packets.
type Context struct {
	// NowNS returns the current virtual time in nanoseconds; it may be
	// nil in untimed (pure functional) runs.
	NowNS func() int64

	// PoolShard is the executing core's wired slice of pkt.DefaultPool,
	// set by the plan's poll tasks so graph exits recycle — and sources
	// allocate — against core-local state (see Recycle/Alloc). Nil in
	// contexts that never entered a placed plan.
	PoolShard *pkt.PoolShard

	cycles float64
	frames []frame      // profiling stack; empty unless Router.Instrument is active
	ones   []*pkt.Batch // batches of one for Out and PushOne; see one
	depth  int          // how many of ones are in use
}

// Recycle returns p to the executing core's wired shard, or to
// pkt.DefaultPool when the context has none — the shared-nothing fast
// path: a Discard or Sink on core c puts into core c's freelist, and
// the next poll's allocations find the buffer still cache-warm.
func (c *Context) Recycle(p *pkt.Packet) {
	if c.PoolShard != nil {
		c.PoolShard.Put(p)
		return
	}
	pkt.DefaultPool.Put(p)
}

// RecycleBatch is Recycle for a whole batch: one shard-lock crossing
// for all of b's packets.
func (c *Context) RecycleBatch(b *pkt.Batch) {
	if c.PoolShard != nil {
		c.PoolShard.PutBatch(b)
		return
	}
	pkt.DefaultPool.PutBatch(b)
}

// Alloc draws a packet from the executing core's wired shard, or from
// pkt.DefaultPool when the context has none — the allocation half of
// the shared-nothing discipline for elements that materialize packets
// on the datapath (ESP encapsulation, reassembly).
func (c *Context) Alloc(size int) *pkt.Packet {
	if c.PoolShard != nil {
		return c.PoolShard.Get(size)
	}
	return pkt.DefaultPool.Get(size)
}

// one wraps p in a batch of one taken from the context's stack, for Out
// and PushOne; release returns it. A stack rather than one scratch batch
// keeps the wrapping re-entrant: a graph that cycles back into an
// element pushes again before the outer batch of one is released.
func (c *Context) one(p *pkt.Packet) *pkt.Batch {
	if c.depth == len(c.ones) {
		c.ones = append(c.ones, pkt.NewBatch(1))
	}
	b := c.ones[c.depth]
	c.depth++
	b.Add(p)
	return b
}

// release empties and returns the batch the last one handed out.
func (c *Context) release() {
	c.depth--
	c.ones[c.depth].Reset()
}

// frame tracks one instrumented push: the cycle counter at entry and the
// cycles consumed by nested (child) pushes.
type frame struct {
	entry float64
	child float64
}

// BeginFrame opens a profiling frame for an entry point (a poll task or
// a manual push); pair with EndFrame to attribute the entry element's
// own cycles when the graph is instrumented.
func (c *Context) BeginFrame() int { return c.pushFrame() }

// EndFrame closes the frame opened by BeginFrame and returns the cycles
// charged inside it, exclusive of instrumented children.
func (c *Context) EndFrame(i int) float64 { return c.popFrame(i) }

// pushFrame opens a profiling frame and returns its index.
func (c *Context) pushFrame() int {
	c.frames = append(c.frames, frame{entry: c.cycles})
	return len(c.frames) - 1
}

// popFrame closes frame i, returning the cycles charged within it
// exclusive of nested frames, and credits the total to the parent frame.
func (c *Context) popFrame(i int) float64 {
	f := c.frames[i]
	total := c.cycles - f.entry
	own := total - f.child
	c.frames = c.frames[:i]
	if i > 0 {
		c.frames[i-1].child += total
	}
	return own
}

// Charge adds virtual CPU cycles to the current dispatch. Element
// implementations call it with the calibrated cost of the work they just
// did.
func (c *Context) Charge(cycles float64) { c.cycles += cycles }

// TakeCycles returns the accumulated cycles and resets the accumulator;
// the core loop calls it after each batch to advance its clock.
func (c *Context) TakeCycles() float64 {
	v := c.cycles
	c.cycles = 0
	return v
}

// Now reports the virtual time in nanoseconds, or 0 when untimed.
func (c *Context) Now() int64 {
	if c.NowNS == nil {
		return 0
	}
	return c.NowNS()
}

// wallEpoch anchors WallNS: the wall time once, then the monotonic clock.
var wallEpoch = time.Now()

// WallNS reads real time in nanoseconds since the Unix epoch: the NowNS
// of every context that runs a graph in real time, so timers (Reassembler
// eviction, Shaper refill) advance and Tap and Stamp record real times.
// It is the wall time at process start plus monotonic time since, so a
// step of the system clock never moves a timer backwards or jumps it.
func WallNS() int64 { return wallEpoch.UnixNano() + int64(time.Since(wallEpoch)) }

// Element is a packet-processing module. Push delivers a packet to input
// port port; the element does its work, charges cycles, and pushes the
// packet onward through its bound outputs (or drops it).
type Element interface {
	// Push processes a packet arriving on the given input port.
	Push(ctx *Context, port int, p *pkt.Packet)
}

// PortCounter is implemented by elements that know how many ports they
// expose; the router validates connections against it. Elements that do
// not implement it accept any port index.
type PortCounter interface {
	InPorts() int
	OutPorts() int
}

// Output is a per-packet downstream function; SetOutput binds one to a
// port by unrolling each batch into it.
type Output func(ctx *Context, p *pkt.Packet)

// Base provides output-port bookkeeping for element implementations.
// Embed it and call OutBatch to forward batches, Out to forward single
// packets. Each port has exactly one binding, a BatchOutput; Out sends
// its packet through it as a batch of one.
type Base struct {
	outs []BatchOutput
}

// SetBatchOutput binds output port i.
func (b *Base) SetBatchOutput(i int, out BatchOutput) {
	for len(b.outs) <= i {
		b.outs = append(b.outs, nil)
	}
	b.outs[i] = out
}

// SetOutput binds output port i to a per-packet function, which receives
// every batch sent there unrolled in slot order.
func (b *Base) SetOutput(i int, out Output) { b.SetBatchOutput(i, unroll(out)) }

// Out pushes p to output port i as a batch of one; unconnected ports
// drop silently (like Click's Discard-terminated dangling outputs, but
// explicit).
func (b *Base) Out(ctx *Context, i int, p *pkt.Packet) {
	if i < len(b.outs) && b.outs[i] != nil {
		b.outs[i](ctx, ctx.one(p))
		ctx.release()
	}
}

// OutBatch pushes a whole batch to output port i. Ownership of the
// packets passes downstream; the Batch container returns to the caller
// empty, ready for refilling. Unconnected ports drop the batch.
func (b *Base) OutBatch(ctx *Context, i int, batch *pkt.Batch) {
	if i < len(b.outs) && b.outs[i] != nil {
		b.outs[i](ctx, batch)
	}
	batch.Reset()
}

// Connected reports whether output i is bound.
func (b *Base) Connected(i int) bool { return i < len(b.outs) && b.outs[i] != nil }

// Router is a named element graph.
type Router struct {
	elements map[string]Element
	order    []string
	conns    []conn
}

type conn struct {
	from     string
	fromPort int
	to       string
	toPort   int
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{elements: make(map[string]Element)}
}

// Add registers an element under a unique name.
func (r *Router) Add(name string, e Element) error {
	if _, dup := r.elements[name]; dup {
		return fmt.Errorf("click: duplicate element %q", name)
	}
	if e == nil {
		return fmt.Errorf("click: nil element %q", name)
	}
	r.elements[name] = e
	r.order = append(r.order, name)
	return nil
}

// MustAdd is Add that panics on error, for static configurations.
func (r *Router) MustAdd(name string, e Element) Element {
	if err := r.Add(name, e); err != nil {
		panic(err)
	}
	return e
}

// Get returns a registered element, or nil.
func (r *Router) Get(name string) Element { return r.elements[name] }

// Elements returns the element names in registration order.
func (r *Router) Elements() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Connect wires from[fromPort] → to[toPort].
func (r *Router) Connect(from string, fromPort int, to string, toPort int) error {
	src, ok := r.elements[from]
	if !ok {
		return fmt.Errorf("click: connect from unknown element %q", from)
	}
	dst, ok := r.elements[to]
	if !ok {
		return fmt.Errorf("click: connect to unknown element %q", to)
	}
	setter, ok := src.(BatchOutputSetter)
	if !ok {
		return fmt.Errorf("click: element %q has no outputs", from)
	}
	if pc, ok := src.(PortCounter); ok && fromPort >= pc.OutPorts() {
		return fmt.Errorf("click: %q output %d out of range (%d outputs)", from, fromPort, pc.OutPorts())
	}
	if pc, ok := dst.(PortCounter); ok && toPort >= pc.InPorts() {
		return fmt.Errorf("click: %q input %d out of range (%d inputs)", to, toPort, pc.InPorts())
	}
	for _, c := range r.conns {
		if c.from == from && c.fromPort == fromPort {
			return fmt.Errorf("click: output %s[%d] already connected", from, fromPort)
		}
	}
	setter.SetBatchOutput(fromPort, BatchDispatch(dst, toPort))
	r.conns = append(r.conns, conn{from, fromPort, to, toPort})
	return nil
}

// MustConnect is Connect that panics on error.
func (r *Router) MustConnect(from string, fromPort int, to string, toPort int) {
	if err := r.Connect(from, fromPort, to, toPort); err != nil {
		panic(err)
	}
}

// Check verifies that every declared output port of every element is
// connected, mirroring Click's configuration-time check.
func (r *Router) Check() error {
	var missing []string
	for _, name := range r.order {
		pc, ok := r.elements[name].(PortCounter)
		if !ok {
			continue
		}
		for p := 0; p < pc.OutPorts(); p++ {
			found := false
			for _, c := range r.conns {
				if c.from == name && c.fromPort == p {
					found = true
					break
				}
			}
			if !found {
				missing = append(missing, fmt.Sprintf("%s[%d]", name, p))
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("click: unconnected outputs: %v", missing)
	}
	return nil
}

// Graph renders the connection list, for documentation and debugging.
func (r *Router) Graph() string {
	s := ""
	for _, c := range r.conns {
		s += fmt.Sprintf("%s[%d] -> %s[%d]\n", c.from, c.fromPort, c.to, c.toPort)
	}
	return s
}
