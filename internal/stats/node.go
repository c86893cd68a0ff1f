package stats

// NodeStats is one cluster member's slice of the /api/v1/stats JSON
// document: the pipeline's unified ingress Snapshot plus the node's
// socket-level counters, which live outside the pipeline (UDP reads and
// writes, drains). cmd/rbrouter serves it and rbmesh decodes it when
// aggregating a cluster snapshot, so the two ends agree on the wire
// shape by construction.
type NodeStats struct {
	ID      int      `json:"id"`
	Ingress Snapshot `json:"ingress"`

	TransitQueued  int    `json:"transit_queued"`
	TransitPackets uint64 `json:"transit_packets"`
	Forwarded      uint64 `json:"forwarded"`
	Egressed       uint64 `json:"egressed"`
	RouteMisses    uint64 `json:"route_misses"`
	// HeaderDrops counts frames rejected for their header, TTL expiry
	// included; TTLDrops is that share alone.
	HeaderDrops uint64 `json:"header_drops"`
	TTLDrops    uint64 `json:"ttl_drops"`
	RxDrops     uint64 `json:"rx_drops"`
	TxBatches   uint64 `json:"tx_batches"`
	TxStalls    uint64 `json:"tx_stalls"`
	// TxDrained counts frames recycled instead of sent: routed to a peer
	// the membership layer declared dead, or to a collector the node does
	// not have — accounted, not silently lost.
	TxDrained uint64 `json:"tx_drained"`
	// TxErrors counts frames routed for the wire that the kernel did not
	// take: the send failed. Forwarded and Egressed count only frames
	// it took.
	TxErrors uint64 `json:"tx_errors"`
	// Restripes is the node's VLB re-stripe generation (0 until the
	// first membership change re-spreads the mesh).
	Restripes uint64 `json:"restripes,omitempty"`
}

// NodeTotals is the cluster-wide sum of per-node counters — the shape
// rbmesh reports as the aggregate forwarding ledger. The wire rx/tx
// fields come from each node's Ingress.Wire snapshot (internal/netio
// counters): they prove the mesh's sockets actually ran batched — mean
// fill is WireRxFrames/WireRxBatches — and which syscall path carried
// the traffic; WireTxFrames/WireTxSends is the mean frames per send,
// WireRxGROFrames/WireRxGROBuffers the segments per UDP GRO buffer and
// WireTxBundled/WireTxBundles the frames per mesh bundle.
type NodeTotals struct {
	TransitPackets uint64 `json:"transit_packets"`
	Forwarded      uint64 `json:"forwarded"`
	Egressed       uint64 `json:"egressed"`
	RouteMisses    uint64 `json:"route_misses"`
	HeaderDrops    uint64 `json:"header_drops"`
	TTLDrops       uint64 `json:"ttl_drops"`
	RxDrops        uint64 `json:"rx_drops"`
	TxBatches      uint64 `json:"tx_batches"`
	TxStalls       uint64 `json:"tx_stalls"`
	TxDrained      uint64 `json:"tx_drained"`
	TxErrors       uint64 `json:"tx_errors"`

	WireRxBatches uint64 `json:"wire_rx_batches,omitempty"`
	WireRxFrames  uint64 `json:"wire_rx_frames,omitempty"`
	WireTxBatches uint64 `json:"wire_tx_batches,omitempty"`
	WireTxFrames  uint64 `json:"wire_tx_frames,omitempty"`
	WireTxSends   uint64 `json:"wire_tx_sends,omitempty"`

	WireRxMalformed  uint64 `json:"wire_rx_malformed,omitempty"`
	WireRxGROBuffers uint64 `json:"wire_rx_gro_buffers,omitempty"`
	WireRxGROFrames  uint64 `json:"wire_rx_gro_frames,omitempty"`
	WireRxBundles    uint64 `json:"wire_rx_bundles,omitempty"`
	WireTxBundles    uint64 `json:"wire_tx_bundles,omitempty"`
	WireTxBundled    uint64 `json:"wire_tx_bundled,omitempty"`
}

// SumNodes folds per-node stats into cluster totals.
func SumNodes(nodes []NodeStats) NodeTotals {
	var t NodeTotals
	for _, n := range nodes {
		t.TransitPackets += n.TransitPackets
		t.Forwarded += n.Forwarded
		t.Egressed += n.Egressed
		t.RouteMisses += n.RouteMisses
		t.HeaderDrops += n.HeaderDrops
		t.TTLDrops += n.TTLDrops
		t.RxDrops += n.RxDrops
		t.TxBatches += n.TxBatches
		t.TxStalls += n.TxStalls
		t.TxDrained += n.TxDrained
		t.TxErrors += n.TxErrors
		if w := n.Ingress.Wire; w != nil {
			t.WireRxBatches += w.RxBatches
			t.WireRxFrames += w.RxFrames
			t.WireTxBatches += w.TxBatches
			t.WireTxFrames += w.TxFrames
			t.WireTxSends += w.TxSends
			t.WireRxMalformed += w.RxMalformed
			t.WireRxGROBuffers += w.RxGROBuffers
			t.WireRxGROFrames += w.RxGROFrames
			t.WireRxBundles += w.RxBundles
			t.WireTxBundles += w.TxBundles
			t.WireTxBundled += w.TxBundled
		}
	}
	return t
}
