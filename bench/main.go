// Command bench is the repository's end-to-end benchmark: five workloads
// that push seed-built frames through the shipped rbrouter binary (as a
// mesh of real processes on loopback) and through the routebricks.Load
// pipeline in-process, check that what comes out is correct, and report
// the end-to-end metrics and the per-layer budget BENCHMARK.json names.
// See README.md in this directory.
//
//	go run -C bench .                          all workloads, tracing off
//	go run -C bench . -trace 1                 all workloads, per-layer (traced) run
//	go run -C bench . -workload wire_lat       one workload
//	go run -C bench . -check-repeat            two sets back to back, gaps against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"routebricks"
	"routebricks/internal/cluster"
)

const (
	buildDir = ".bench_build" // in the checkout root; build outputs and per-run scratch
	maxLoss  = 0.001          // loss_ratio above this fails the run
	// maxReorder is the correctness bound on reordered sequences per
	// delivered frame: flowlets are there to keep it near zero.
	maxReorder = 0.01

	// Set-up is repeated at least minSetups times, and further while it
	// is cheap, so that setup_s is a median.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond

	// sliceLen is the grain the measured window is cut into; throughput
	// and latency are reported as medians over the slices.
	sliceLen = time.Second

	// checkRepeatRuns is how many runs of each workload, on consecutive
	// seeds, make up one of -check-repeat's two sets.
	checkRepeatRuns = 3

	// runLimit is the watchdog on one workload run, under the 180 s the
	// contract allows.
	runLimit = 170 * time.Second
)

// warmUp is how long load runs before the measured window opens.
func warmUp(window time.Duration) time.Duration {
	return min(2*time.Second, window/5)
}

// runEnv is where a run finds and leaves things.
type runEnv struct {
	root      string // checkout root
	workDir   string // root/.bench_build
	outDir    string // root/bench/out
	routerBin string
}

// result is one workload run.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Env        map[string]string  `json:"env"`
	Metrics    map[string]float64 `json:"metrics"`
	Attempted  uint64             `json:"attempted"`
	Failed     uint64             `json:"failed"`
	Slices     []float64          `json:"slices_fwd_mpps"` // per-slice throughput, to see how steady the run was
	Failures   []string           `json:"failures,omitempty"`
	Unresolved []string           `json:"unresolved,omitempty"`
}

func newResult(wl *workload, seed int64) *result {
	return &result{Workload: wl.name, Seed: seed, Env: environment(seed), Metrics: make(map[string]float64)}
}

func (r *result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// unresolved marks a run whose environment is not the one the bounds
// were set in: its numbers are printed but not emitted as a result.
func (r *result) unresolved(format string, args ...any) {
	r.Unresolved = append(r.Unresolved, fmt.Sprintf(format, args...))
}

func (r *result) checkLoss() {
	if l := r.Metrics["loss_ratio"]; l > maxLoss {
		r.fail("loss_ratio %.5f exceeds %.3f (%d of %d)", l, maxLoss, r.Failed, r.Attempted)
	}
}

// environment is the block every results file carries.
func environment(seed int64) map[string]string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"GOMAXPROCS": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"kernel":     strings.TrimSpace(string(kernel)),
		"go":         runtime.Version(),
		"commit":     commit,
		"seed":       fmt.Sprint(seed),
		"link":       "loopback (no real link is crossed)",
	}
}

// findRoot walks up from the working directory to the checkout root:
// the directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

// runWorkload runs one workload once: the black-box run, and with trace
// set the traced serial loop on the same inputs after it.
func runWorkload(env *runEnv, wl *workload, seed int64, seconds int, trace bool) (*result, error) {
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v, giving up\n", wl.name, runLimit)
		killAllGroups()
		os.Exit(3)
	})
	defer watchdog.Stop()

	window := time.Duration(seconds) * time.Second
	if trace {
		// A traced run splits its time: the black-box run for the
		// counters, then the serial loop for the spans.
		window /= 2
	}
	if !wl.wire {
		res, m, err := runMem(wl, seed, window)
		if err != nil || !trace {
			return res, err
		}
		return res, runTrace(env, wl, m.in, m.fib, window/2, res.Metrics)
	}
	res, err := runWire(env, wl, seed, window)
	if err != nil || !trace {
		return res, err
	}
	// The traced node looks routes up in rbrouter's own seeding: member d
	// owns 10.d.0.0/16.
	fib, err := routebricks.NewFIB(cluster.SeedRoutes(wl.members)...)
	if err != nil {
		return nil, err
	}
	in := &memInputs{fs: buildFrames(seed, wl.frameConfig())}
	return res, runTrace(env, wl, in, fib, window/2, res.Metrics)
}

// contractLine is the last line of standard output in single-workload
// mode: the object the driver reads.
func contractLine(res *result, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		metrics[s.Name] = value{res.Metrics[s.Name], s.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(res.Failures) == 0,
		"attempted": max(res.Attempted, 1),
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	return string(line)
}

// printResult prints every metric the run measured, by name, with its unit.
func printResult(res *result) {
	fmt.Printf("== %s (seed %d)\n", res.Workload, res.Seed)
	keys := make([]string, 0, len(res.Env))
	for k := range res.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   env %-12s %s\n", k, res.Env[k])
	}
	for _, group := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range group {
			if v, ok := res.Metrics[s.Name]; ok {
				fmt.Printf("   %-28s %14.4f %s\n", s.Name, v, s.Unit)
			}
		}
	}
	fmt.Printf("   %-28s %14d of %d\n", "failed", res.Failed, res.Attempted)
	fmt.Printf("   fwd_mpps per %v slice      ", sliceLen)
	for _, v := range res.Slices {
		fmt.Printf(" %.4g", v)
	}
	fmt.Println()
	for _, f := range res.Failures {
		fmt.Printf("   INCORRECT: %s\n", f)
	}
	for _, u := range res.Unresolved {
		fmt.Printf("   UNRESOLVED: %s\n", u)
	}
}

func run() int {
	var (
		name        = flag.String("workload", "", "run this one workload and end with the result line (default: all five)")
		seed        = flag.Int64("seed", 1, "seed the frames, routes and destinations are generated from")
		seconds     = flag.Int("seconds", defaultSeconds, "measured window per workload, in seconds")
		trace       = flag.Int("trace", 0, "1: the traced run, which yields the per-layer metrics; 0: end-to-end metrics, tracing off")
		checkRepeat = flag.Bool("check-repeat", false, "run the full set twice and compare the two medians of every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-check-repeat]")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	env := &runEnv{root: root, workDir: filepath.Join(root, buildDir), outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(env.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if env.routerBin, err = buildRouter(root); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// Members die with the benchmark on every exit path.
	defer killAllGroups()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllGroups()
		os.Exit(130)
	}()

	var unresolved []string
	if runtime.NumCPU() < 2 {
		unresolved = append(unresolved, fmt.Sprintf("nproc is %d; the bounds were set on 2 CPUs", runtime.NumCPU()))
	}

	one := func(wl *workload, seed int64) (*result, bool) {
		res, err := runWorkload(env, wl, seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			return nil, false
		}
		res.Unresolved = append(res.Unresolved, unresolved...)
		printResult(res)
		return res, len(res.Failures) == 0 && len(res.Unresolved) == 0
	}

	switch {
	case *checkRepeat:
		return checkRepeats(one, *seed)
	case *name != "":
		wl := workloadByName(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
			return 2
		}
		res, ok := one(wl, *seed)
		if res == nil || len(res.Unresolved) > 0 {
			return 1 // no result line: nothing here may be compared
		}
		fmt.Println(contractLine(res, *trace == 1))
		if !ok {
			return 1
		}
		return 0
	default:
		status := 0
		var all []*result
		for i := range workloads {
			res, ok := one(&workloads[i], *seed)
			if !ok {
				status = 1
			}
			if res != nil {
				all = append(all, res)
			}
		}
		if err := writeJSON(filepath.Join(env.outDir, "results.json"), all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		return status
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkRepeats runs the full set twice, back to back, and compares the
// two medians of every end-to-end metric on every workload against the
// metric's bound — the evidence that the benchmark agrees with itself,
// and the tool to run before claiming that a change moved anything.
func checkRepeats(one func(*workload, int64) (*result, bool), seed int64) int {
	type key struct{ wl, metric string }
	var sets [2]map[key][]float64
	status := 0
	for s := range sets {
		sets[s] = make(map[key][]float64)
		for r := 0; r < checkRepeatRuns; r++ {
			for i := range workloads {
				res, ok := one(&workloads[i], seed+int64(r))
				if !ok {
					status = 1
				}
				if res == nil {
					continue
				}
				for _, m := range endToEnd {
					k := key{res.Workload, m.Name}
					sets[s][k] = append(sets[s][k], res.Metrics[m.Name])
				}
			}
		}
	}
	fmt.Printf("\n%-12s %-16s %12s %12s %8s %8s\n", "workload", "metric", "median A", "median B", "gap", "bound")
	for i := range workloads {
		for _, m := range endToEnd {
			k := key{workloads[i].name, m.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			// The gap is how much worse B is than A, as a share of A.
			gap := ratio(b-a, a)
			if m.Better == "higher" {
				gap = -gap
			}
			verdict := ""
			if gap > m.Bound {
				verdict = "  EXCEEDS"
				status = 1
			}
			fmt.Printf("%-12s %-16s %12.4f %12.4f %+7.1f%% %7.0f%%%s\n", k.wl, k.metric, a, b, gap*100, m.Bound*100, verdict)
		}
	}
	return status
}

func main() { os.Exit(run()) }
