package main

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"testing"

	"routebricks/internal/pkt"
	"routebricks/internal/trafficgen"
)

// These tests are hermetic: no sockets, no child processes. They cover
// the arithmetic the benchmark's numbers rest on.

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{0, 0}, {999, 0}, {1000, 99}, {9999, 99}, {10000, 99.9},
		{99999, 99.9}, {100000, 99.99}, {600000, 99.99}, {1000000, 99.999},
	} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
	// The percentile it names really has ten samples beyond it.
	sorted := make([]uint32, 100000)
	for i := range sorted {
		sorted[i] = uint32(i)
	}
	v := percentile(sorted, tailPercentile(len(sorted)))
	if beyond := len(sorted) - 1 - int(v); beyond != 10 {
		t.Errorf("p%v of %d samples leaves %d beyond it, want 10", tailPercentile(len(sorted)), len(sorted), beyond)
	}
	if got := percentile(sorted, 50); got != 49999 {
		t.Errorf("median = %d, want 49999", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},    // nested child
		{name: "leaf", start: 15, end: 25, parent: 1}, // grandchild
		{name: "b", start: 30, end: 60, parent: 0},    // overlaps a by 10
		{name: "b", start: 90, end: 120, parent: 0},   // runs past the parent: clipped to 10
		{name: "root", start: 200, end: 210, parent: -1},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": (100 - (30 + 20 + 10)) + 10, // union of children is [10,60) and [90,100)
		"a":    30 - 10,
		"leaf": 10,
		"b":    30 + 30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, got[name], w)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.begin("ignored") // off: records nothing
	r.end()
	r.on = true
	r.begin("outer")
	r.begin("inner")
	r.end()
	r.end()
	if len(r.spans) != 2 || r.spans[0].parent != -1 || r.spans[1].parent != 0 {
		t.Fatalf("spans = %+v, want outer(-1) and inner(0)", r.spans)
	}
	if r.spans[1].start < r.spans[0].start || r.spans[1].end > r.spans[0].end {
		t.Errorf("inner %+v not inside outer %+v", r.spans[1], r.spans[0])
	}
}

var meshFrames = frameConfig{sizes: trafficgen.AbileneMix(), prefixes: 3, ingress: 3, slowShare: 0.01}

func frameBytes(fs *frameSet) []byte {
	var all bytes.Buffer
	for _, f := range fs.frames {
		all.Write(f.p.Data)
	}
	return all.Bytes()
}

func TestSeedDeterminism(t *testing.T) {
	a, b, c := buildFrames(7, meshFrames), buildFrames(7, meshFrames), buildFrames(8, meshFrames)
	if len(a.frames) != numFrames {
		t.Fatalf("%d frames, want %d", len(a.frames), numFrames)
	}
	if !bytes.Equal(frameBytes(a), frameBytes(b)) {
		t.Error("the same seed built different frames")
	}
	if bytes.Equal(frameBytes(a), frameBytes(c)) {
		t.Error("different seeds built the same frames")
	}
	for i := range a.frames {
		if a.frames[i].kind != b.frames[i].kind || a.frames[i].flow != b.frames[i].flow || a.frames[i].ingress != b.frames[i].ingress {
			t.Fatalf("frame %d: bookkeeping differs between two builds of one seed", i)
		}
	}
}

func TestSlowPathFrames(t *testing.T) {
	fs := buildFrames(1, meshFrames)
	testNet := netip.MustParsePrefix("192.0.2.0/24")
	var count [numKinds]int
	for i, f := range fs.frames {
		count[f.kind]++
		ih := f.p.IPv4()
		routable := ih.Dst().As4()[0] == 10 && int(ih.Dst().As4()[1]) < meshFrames.prefixes
		switch f.kind {
		case fastPath:
			if ih.TTL() != sentTTL || !ih.VerifyChecksum() || !routable {
				t.Fatalf("frame %d: fast-path frame is not forwardable", i)
			}
		case slowTTL:
			if ih.TTL() != 1 || !ih.VerifyChecksum() || !routable {
				t.Fatalf("frame %d: TTL frame must differ from a valid one in its TTL only", i)
			}
		case slowChecksum:
			if ih.VerifyChecksum() || ih.TTL() != sentTTL || !routable {
				t.Fatalf("frame %d: checksum frame must differ from a valid one in its checksum only", i)
			}
		case slowNoRoute:
			if !testNet.Contains(ih.Dst()) || !ih.VerifyChecksum() || ih.TTL() != sentTTL {
				t.Fatalf("frame %d: unroutable frame must be valid but for its destination", i)
			}
		}
		if f.ingress < 0 || f.ingress >= meshFrames.ingress {
			t.Fatalf("frame %d: ingress %d", i, f.ingress)
		}
	}
	slow := count[slowTTL] + count[slowChecksum] + count[slowNoRoute]
	if slow < numFrames/200 || slow > numFrames/50 {
		t.Errorf("%d slow-path frames of %d, want about 1%%", slow, numFrames)
	}
	for k := slowTTL; k < numKinds; k++ {
		if d := count[k] - slow/3; d < -1 || d > 1 {
			t.Errorf("%d %s frames of %d slow ones, want a third", count[k], k, slow)
		}
	}
}

// forward does to a copy of frame i what a correct mesh does.
func forward(fs *frameSet, i int) []byte {
	f := fs.frames[i]
	stamp(f.p, 42, 123456789)
	d := bytes.Clone(f.p.Data)
	pkt.EtherHdr(d).SetSrc(pkt.NodeMAC(f.ingress))
	pkt.EtherHdr(d).SetDst(pkt.NodeMAC(f.owner))
	pkt.IPv4Hdr(d[pkt.EtherHdrLen:]).DecTTL()
	return d
}

func TestVerifyDelivered(t *testing.T) {
	fs := buildFrames(1, meshFrames)
	fast, slow := -1, -1
	for i, f := range fs.frames {
		if f.kind == fastPath && fast < 0 && len(f.p.Data) > pkt.MinSize {
			fast = i
		}
		if f.kind == slowNoRoute && slow < 0 {
			slow = i
		}
	}
	got, err := fs.verifyDelivered(forward(fs, fast))
	if err != nil {
		t.Fatalf("a correctly forwarded frame was rejected: %v", err)
	}
	if got.idx != fast || got.seq != 42 || got.dueNs != 123456789 {
		t.Errorf("read back %+v, want frame %d seq 42 due 123456789", got, fast)
	}
	if _, err := fs.verifyDelivered(forward(fs, slow)); err == nil {
		t.Error("a delivered slow-path frame was accepted")
	}
	owner := fs.frames[fast].owner
	for name, tamper := range map[string]func(d []byte){
		"TTL not decremented": func(d []byte) { ih := pkt.IPv4Hdr(d[pkt.EtherHdrLen:]); ih.SetTTL(sentTTL); ih.UpdateChecksum() },
		"bad checksum":        func(d []byte) { d[pkt.EtherHdrLen+10] ^= 1 },
		"payload flipped":     func(d []byte) { d[len(d)-1] ^= 1 },
		"source rewritten": func(d []byte) {
			ih := pkt.IPv4Hdr(d[pkt.EtherHdrLen:])
			d[pkt.EtherHdrLen+12] ^= 1
			ih.UpdateChecksum()
		},
		"wrong owner MAC": func(d []byte) { pkt.EtherHdr(d).SetDst(pkt.NodeMAC(owner + 1)) },
		"truncated":       func(d []byte) {},
	} {
		d := forward(fs, fast)
		tamper(d)
		if name == "truncated" {
			d = d[:len(d)-4]
		}
		if _, err := fs.verifyDelivered(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestConservation(t *testing.T) {
	l := ledger{sent: 1000, delivered: 980, drops: 15, queued: 5}
	if got := l.unaccounted(); got != 0 {
		t.Errorf("balanced ledger leaves %d unaccounted", got)
	}
	l.delivered = 970
	if got := l.unaccounted(); got != 10 {
		t.Errorf("unaccounted = %d, want 10", got)
	}
	l.drops = 40 // a counter that over-counts shows as negative, not as zero
	if got := l.unaccounted(); got != -15 {
		t.Errorf("unaccounted = %d, want -15", got)
	}
	if got := lossRatio(1000, 999); got != 0.001 {
		t.Errorf("lossRatio(1000, 999) = %v, want 0.001", got)
	}
	if got := lossRatio(1000, 1001); got != 0 { // a frame stamped before the window and counted after it
		t.Errorf("lossRatio(1000, 1001) = %v, want 0", got)
	}
	if got := lossRatio(0, 0); got != 0 {
		t.Errorf("lossRatio(0, 0) = %v, want 0", got)
	}
}

// TestContractMatchesSpec holds BENCHMARK.json and spec.go in step: the
// same workloads, metrics, units, directions and bounds, in order.
func TestContractMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds != defaultSeconds {
		t.Errorf("paths %v run_seconds %d, want [bench] and %d", doc.Paths, doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in spec.go", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in spec.go", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
