package click

import "routebricks/internal/pkt"

// BatchElement is implemented by elements that process whole packet
// batches natively. PushBatch delivers a batch to input port port; the
// element does its work, charges cycles once per batch rather than once
// per packet, and forwards the survivors with OutBatch (compacting the
// batch in place if it filtered any out).
//
// A batch-native element keeps its logic in PushBatch alone; its Push,
// the single-packet entry point (error ports of per-packet upstreams,
// manual tests), is one call to PushOne.
type BatchElement interface {
	Element
	// PushBatch processes a batch arriving on the given input port.
	PushBatch(ctx *Context, port int, b *pkt.Batch)
}

// PushOne delivers p to e's input port as a batch of one, drawn from
// ctx's re-entrant stack, so it allocates nothing once ctx is warm.
func PushOne(e BatchElement, ctx *Context, port int, p *pkt.Packet) {
	e.PushBatch(ctx, port, ctx.one(p))
	ctx.release()
}

// BatchOutput is the binding of one output port: the function a batch
// sent there is handed to.
type BatchOutput func(ctx *Context, b *pkt.Batch)

// BatchOutputSetter is implemented by elements with outputs (via
// embedding Base). The router wires every connection through it.
type BatchOutputSetter interface {
	SetBatchOutput(port int, out BatchOutput)
}

// BatchDispatch builds the BatchOutput for a connection into dst's input
// port, choosing the native or adapted delivery path once at wiring time
// so the dispatch itself is a single indirect call. A per-packet dst
// gets the batch unrolled into Push calls in slot order — the adapter
// that lets per-packet elements sit unmodified inside a batch graph.
// Either way, ownership of the packets passes to dst and b comes back
// empty, ready for reuse.
func BatchDispatch(dst Element, port int) BatchOutput {
	if be, ok := dst.(BatchElement); ok {
		return func(ctx *Context, b *pkt.Batch) {
			be.PushBatch(ctx, port, b)
			b.Reset()
		}
	}
	return unroll(func(ctx *Context, p *pkt.Packet) { dst.Push(ctx, port, p) })
}

// unroll adapts a per-packet function to a port binding: each batch is
// delivered in slot order and comes back empty.
func unroll(out Output) BatchOutput {
	return func(ctx *Context, b *pkt.Batch) {
		for _, p := range b.Packets() {
			if p != nil {
				out(ctx, p)
			}
		}
		b.Reset()
	}
}
