package exec

import (
	"runtime"
	"time"

	"routebricks/internal/pkt"
)

// This file measures the real per-packet cost of moving packets through
// an SPSC handoff ring between two goroutines. routebricks.Load runs
// MeasureHandoff once per process and Placement: Auto calibration
// charges that figure for every handoff crossing, so placement
// decisions reflect the host the router actually runs on.

// MeasureConfig parameterizes MeasureHandoff. The zero value selects
// the documented defaults.
type MeasureConfig struct {
	// Packets is the batch size bounced per hand (default 64 — large
	// enough to amortize the batch-publish, small enough to stay in L1).
	Packets int
	// Rounds is how many round trips to time (default 512).
	Rounds int
	// ClockHz converts wall time to cycles (default 2.8e9, the paper's
	// Nehalem clock — the unit every element cost is calibrated in).
	ClockHz float64

	// now overrides the wall clock for deterministic tests.
	now func() time.Time
}

func (c MeasureConfig) withDefaults() MeasureConfig {
	if c.Packets <= 0 {
		c.Packets = 64
	}
	if c.Rounds <= 0 {
		c.Rounds = 512
	}
	if c.ClockHz <= 0 {
		c.ClockHz = 2.8e9
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// MeasureHandoff estimates the per-packet cost, in CPU cycles at
// cfg.ClockHz, of one SPSC ring crossing between two goroutines: a
// ping-pong microbenchmark pushes batches through a ring pair (echoed
// back by a second goroutine), so each round trip pays two crossings
// and both sides' cache lines stay genuinely remote. The result is
// clamped to at least 1 cycle; callers cache it (a measurement costs a
// few hundred microseconds and the answer does not change mid-run).
func MeasureHandoff(cfg MeasureConfig) float64 {
	cfg = cfg.withDefaults()
	ping := NewRing(cfg.Packets)
	pong := NewRing(cfg.Packets)
	pkts := make([]*pkt.Packet, cfg.Packets)
	for i := range pkts {
		pkts[i] = &pkt.Packet{}
	}

	total := cfg.Rounds * cfg.Packets
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := pkt.NewBatch(cfg.Packets)
		echoed := 0
		for echoed < total {
			batch.Reset()
			n := ping.PopBatchInto(batch, cfg.Packets)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			// The pong ring has room for a full burst, so every packet
			// lands on the first push.
			pong.PushBatch(batch)
			echoed += n
		}
	}()

	start := cfg.now()
	returned := make([]*pkt.Packet, 0, cfg.Packets)
	for r := 0; r < cfg.Rounds; r++ {
		for _, p := range pkts {
			for !ping.Push(p) {
				runtime.Gosched()
			}
		}
		returned = returned[:0]
		for len(returned) < cfg.Packets {
			p := pong.Pop()
			if p == nil {
				runtime.Gosched()
				continue
			}
			returned = append(returned, p)
		}
	}
	elapsed := cfg.now().Sub(start)
	<-done

	// Two crossings (ping + pong) per packet per round.
	cycles := elapsed.Seconds() * cfg.ClockHz / float64(2*total)
	if cycles < 1 {
		cycles = 1
	}
	return cycles
}
