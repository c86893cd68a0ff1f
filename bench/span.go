package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call into a layer: its name, start and end in ns
// since the recorder's epoch, the span that caused it (-1 for a root),
// and the batch it belongs to. Spans of one batch share the batch id.
type span struct {
	name       string
	start, end int64
	parent     int32
	batch      int32
}

// recorder keeps spans in memory; nothing is written until the run
// ends. It is single-goroutine, like the serial loop it instruments.
// With on false, begin and end cost one branch each, which is what the
// untraced half of the overhead comparison runs.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
	batch int32
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(name string) {
	if !r.on {
		return
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{name: name, parent: parent, batch: r.batch, start: int64(time.Since(r.epoch))})
}

func (r *recorder) end() {
	if !r.on {
		return
	}
	now := int64(time.Since(r.epoch))
	n := len(r.open) - 1
	r.spans[r.open[n]].end = now
	r.open = r.open[:n]
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its child spans cover. Children may overlap each other
// and are clipped to the parent, so covered time is the union of the
// clipped child intervals, not their sum.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		kids := children[int32(i)]
		slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k[0], reach), min(k[1], s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.name] += (s.end - s.start) - covered
	}
	return self
}

// writeSpans dumps the spans as a JSON array, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"batch":%d}%s`+"\n",
			s.name, s.start, s.end, s.parent, s.batch, sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
