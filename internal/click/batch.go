package click

import "routebricks/internal/pkt"

// BatchElement is implemented by elements that process whole packet
// batches natively. PushBatch delivers a batch to input port port; the
// element does its work, charges cycles once per batch rather than once
// per packet, and forwards the survivors with OutBatch (compacting the
// batch in place if it filtered any out).
//
// BatchElement embeds Element: Push remains the single-packet entry
// point (slow paths, error outputs, manual tests), so a per-packet
// upstream can always deliver to a batch-native element and vice versa.
type BatchElement interface {
	Element
	// PushBatch processes a batch arriving on the given input port.
	PushBatch(ctx *Context, port int, b *pkt.Batch)
}

// BatchOutput is a bound downstream batch connection — the batch analog
// of Output.
type BatchOutput func(ctx *Context, b *pkt.Batch)

// BatchOutputSetter is implemented by elements with batch-capable
// outputs (via embedding Base). The router wires batch connections
// through it alongside the per-packet ones.
type BatchOutputSetter interface {
	SetBatchOutput(port int, out BatchOutput)
}

// BatchDispatch builds the BatchOutput for a connection into dst's input
// port, choosing the native or adapted delivery path once at wiring time
// so the dispatch itself is a single indirect call. A per-packet dst
// gets the batch unrolled into Push calls in slot order — the automatic
// adapter that lets per-packet elements sit unmodified inside a batch
// graph. Either way, ownership of the packets passes to dst and b comes
// back empty, ready for reuse.
func BatchDispatch(dst Element, port int) BatchOutput {
	if be, ok := dst.(BatchElement); ok {
		return func(ctx *Context, b *pkt.Batch) {
			be.PushBatch(ctx, port, b)
			b.Reset()
		}
	}
	return func(ctx *Context, b *pkt.Batch) {
		for _, p := range b.Packets() {
			if p != nil {
				dst.Push(ctx, port, p)
			}
		}
		b.Reset()
	}
}
