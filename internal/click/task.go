package click

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Task is a schedulable unit of work — in practice a polling loop step
// that pulls a batch from a receive queue and pushes it through the
// graph. Run reports how many packets it processed; 0 means an empty
// poll.
type Task interface {
	Run(ctx *Context) int
}

// TaskFunc adapts a function to Task.
type TaskFunc func(ctx *Context) int

// Run calls f.
func (f TaskFunc) Run(ctx *Context) int { return f(ctx) }

// Schedule statically assigns tasks to cores — the paper's element-to-
// core allocation (§4.2): threads are pinned, each queue is polled by
// exactly one core.
type Schedule struct {
	cores [][]Task
}

// NewSchedule creates a schedule for the given core count.
func NewSchedule(cores int) *Schedule {
	return &Schedule{cores: make([][]Task, cores)}
}

// Cores reports the core count.
func (s *Schedule) Cores() int { return len(s.cores) }

// Bind pins a task to a core.
func (s *Schedule) Bind(core int, t Task) error {
	if core < 0 || core >= len(s.cores) {
		return fmt.Errorf("click: core %d out of range (0..%d)", core, len(s.cores)-1)
	}
	s.cores[core] = append(s.cores[core], t)
	return nil
}

// MustBind is Bind that panics on error.
func (s *Schedule) MustBind(core int, t Task) {
	if err := s.Bind(core, t); err != nil {
		panic(err)
	}
}

// Tasks returns the tasks bound to a core.
func (s *Schedule) Tasks(core int) []Task { return s.cores[core] }

// RunStep executes one round-robin pass over a core's tasks and reports
// packets processed. The simulation harness calls this per virtual core;
// the live runner calls it in a goroutine loop.
func (s *Schedule) RunStep(core int, ctx *Context) int {
	n := 0
	for _, t := range s.cores[core] {
		n += t.Run(ctx)
	}
	return n
}

// Runner drives a Schedule with one goroutine per core, Click's polling
// mode on real threads. Plan.Start uses it for routebricks.Load callers
// that feed input rings and for the stages behind a pipelined rbrouter
// node's socket loops; a parallel rbrouter node runs wholly on its
// socket loops and never starts one. Simulations drive RunStep
// themselves on virtual time.
type Runner struct {
	sched   *Schedule
	stop    atomic.Bool
	wg      sync.WaitGroup
	started atomic.Bool

	// Processed counts packets handled per core; steps counts RunStep
	// invocations (the idle-backoff test uses it to prove an idle runner
	// is sleeping, not spinning). Both are written on every loop
	// iteration, so each core's counter gets its own cache line —
	// packed atomics here would inject exactly the cross-core coherence
	// traffic the placement benchmark exists to measure.
	processed []paddedCounter
	steps     []paddedCounter
}

// paddedCounter is an atomic counter alone on its cache line.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

// Idle-backoff escalation: spin briefly (a busy router refills queues
// within nanoseconds), then yield the P so sibling goroutines run, then
// sleep outright so a quiescent router costs ~no host CPU. Real Click
// busy-polls, but it owns the machine; a library must not peg a core
// that has nothing to do.
const (
	idleSpinSteps  = 64
	idleYieldSteps = 1024
	idleSleep      = 100 * time.Microsecond
)

// NewRunner wraps a schedule.
func NewRunner(s *Schedule) *Runner {
	return &Runner{
		sched:     s,
		processed: make([]paddedCounter, s.Cores()),
		steps:     make([]paddedCounter, s.Cores()),
	}
}

// Start launches the per-core polling goroutines. Calling Start twice is
// an error.
func (r *Runner) Start() error {
	if !r.started.CompareAndSwap(false, true) {
		return fmt.Errorf("click: runner already started")
	}
	// Busy-spinning on an empty queue only pays when the producer can
	// refill it concurrently — i.e. when there are enough OS-level
	// execution slots for producers to run while this core spins. On an
	// oversubscribed host (more polling cores than GOMAXPROCS) the spin
	// quantum is stolen from the very goroutine that would deliver the
	// work, so skip straight to yielding.
	spin := idleSpinSteps
	if runtime.GOMAXPROCS(0) <= r.sched.Cores() {
		spin = 0
	}
	for core := 0; core < r.sched.Cores(); core++ {
		core := core
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ctx := &Context{NowNS: WallNS}
			idle := 0
			for !r.stop.Load() {
				n := r.sched.RunStep(core, ctx)
				ctx.TakeCycles()
				r.steps[core].n.Add(1)
				if n > 0 {
					idle = 0
					r.processed[core].n.Add(uint64(n))
					continue
				}
				idle++
				switch {
				case idle <= spin:
					// Busy-spin: traffic usually refills within nanoseconds.
				case idle <= idleYieldSteps:
					runtime.Gosched()
				default:
					// Quiescent: sleep so an idle router releases the CPU.
					// Capping idle keeps the counter from overflowing on
					// week-long idle stretches.
					idle = idleYieldSteps + 1
					time.Sleep(idleSleep)
				}
			}
		}()
	}
	return nil
}

// Stop halts the polling goroutines and waits for them to exit.
func (r *Runner) Stop() {
	r.stop.Store(true)
	r.wg.Wait()
}

// Processed reports packets handled by a core since Start.
func (r *Runner) Processed(core int) uint64 { return r.processed[core].n.Load() }

// Steps reports RunStep invocations by a core since Start — a proxy for
// how hard the core's polling loop is working.
func (r *Runner) Steps(core int) uint64 { return r.steps[core].n.Load() }
