package main

import (
	"fmt"
	"slices"
	"time"
)

// percentile reads the p-th percentile (0 < p < 100) from sorted
// samples by the nearest-rank rule. Empty input reads 0.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.9999999) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// medianSetup repeats a set-up that took first — at least minSetups
// times in all, and further while it is cheap — and reports the median
// in seconds, which one slow spawn cannot move.
func medianSetup(first time.Duration, again func() (time.Duration, error)) (float64, error) {
	setups := []float64{first.Seconds()}
	for spent := first; len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		d, err := again()
		if err != nil {
			return 0, fmt.Errorf("repeat set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	return median(setups), nil
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latSummary reduces per-slice latency samples (ns) to what is
// reported: the median over slices of each slice's p50 and p99 in µs,
// and all samples merged and sorted for the tail.
func latSummary(perSlice [][]uint32) (p50, p99 float64, all []uint32) {
	var p50s, p99s []float64
	for _, s := range perSlice {
		if len(s) == 0 {
			continue
		}
		slices.Sort(s)
		p50s = append(p50s, float64(percentile(s, 50))/1e3)
		p99s = append(p99s, float64(percentile(s, 99))/1e3)
		all = append(all, s...)
	}
	slices.Sort(all)
	return median(p50s), median(p99s), all
}

// latencyTail reports the deepest percentile the sample supports. The
// metric is named for p99.99, which needs 100 000 samples; a shorter
// run reads 0 there rather than a percentile it cannot back.
func latencyTail(e map[string]float64, sortedNs []uint32) {
	e["lat_samples"] = float64(len(sortedNs))
	e["lat_p9999_us"] = 0
	if tailPercentile(len(sortedNs)) >= 99.99 {
		e["lat_p9999_us"] = float64(percentile(sortedNs, 99.99)) / 1e3
	}
}

// tailPercentile is the rule for how far into the tail a latency sample
// may be read: the highest percentile on the 99 / 99.9 / 99.99 / ...
// ladder that still has at least ten samples beyond it. Fewer than
// 1000 samples support no tail percentile at all (0).
func tailPercentile(samples int) float64 {
	best := 0.0
	// p leaves one sample in every tail beyond it: 99 one in 100, 99.9
	// one in 1000, and so on.
	for p, tail := 99.0, 100; samples >= 10*tail && tail <= 1e6; tail *= 10 {
		best = p
		p = 100 - 100/float64(tail*10)
	}
	return best
}

// ledger is the packet-conservation arithmetic of one wire run, summed
// over all members and taken after the drain: every frame sent was
// delivered, dropped at a counted site, or is still queued — what is
// left over went missing without a reason.
type ledger struct {
	sent      uint64 // frames the generator put on the wire, fast and slow
	delivered uint64 // valid frames the sink received
	drops     uint64 // Σ counted drops: header, route miss, rx ring, graph, drained
	queued    uint64 // frames still in ingress or transit rings
}

// unaccounted may be negative only if a counter over-counts, which is
// as much a finding as a positive value.
func (l ledger) unaccounted() int64 {
	return int64(l.sent) - int64(l.delivered) - int64(l.drops) - int64(l.queued)
}

// lossRatio is the failed-operations share: frames that should have been
// delivered and were not, over frames that should have been delivered.
func lossRatio(shouldDeliver, delivered uint64) float64 {
	if shouldDeliver == 0 {
		return 0
	}
	if delivered > shouldDeliver {
		delivered = shouldDeliver
	}
	return float64(shouldDeliver-delivered) / float64(shouldDeliver)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
