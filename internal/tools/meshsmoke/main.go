// Command meshsmoke is the end-to-end gate for the multi-process mesh:
// it builds rbrouter and rbmesh, boots a 3-member cluster through the
// launcher, and drives the §6 failure story over the public HTTP
// surfaces only — the same interfaces an operator has. It tells the
// story once per §4.2 placement: run to completion on one core
// (parallel), and pipelined across two cores, where every member must
// report the pipelined plan.
//
//  1. all three members converge alive, and 20000 injected packets are
//     fully delivered across the mesh, with the wire counters live,
//     some sends coalesced by UDP GSO and no send failed;
//  2. one member is hard-killed; the aggregate snapshot converges to
//     2/3 running with every survivor re-striped (the dead member's
//     VLB share redistributed), and the smoke prints how long that took
//     and how many frames the survivors drained for the dead member;
//  3. traffic injected after convergence is again fully delivered —
//     the dead member's share moved to live peers without loss;
//  4. the killed member restarts, rejoins, and the cluster converges
//     back to 3/3 (timed the same way) with traffic flowing through all
//     members.
//
// Exit status 0 means the story held on both rows. Run via `make
// mesh-smoke`.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

const api = "http://127.0.0.1:8765"

// rows are the rbmesh flags of each run, passed through to every
// member; each member must then report the -placement value as its plan.
var rows = [][]string{
	{"-cores", "1", "-placement", "parallel"},
	{"-cores", "2", "-placement", "pipelined"},
}

// clusterView is the slice of rbmesh's /api/v1/cluster document the
// smoke assertions need.
type clusterView struct {
	Members     int  `json:"members"`
	Running     int  `json:"running"`
	Converged   bool `json:"converged"`
	MemberTable []struct {
		Stats struct{ Ingress struct{ Plan string } } // keys match case-insensitively
	} `json:"member_table"`
	Totals struct {
		Egressed      uint64 `json:"egressed"`
		TxDrained     uint64 `json:"tx_drained"`
		TxErrors      uint64 `json:"tx_errors"`
		WireRxBatches uint64 `json:"wire_rx_batches"`
		WireRxFrames  uint64 `json:"wire_rx_frames"`
		WireTxBatches uint64 `json:"wire_tx_batches"`
		WireTxFrames  uint64 `json:"wire_tx_frames"`
		WireTxSends   uint64 `json:"wire_tx_sends"`
	} `json:"totals"`
	Collector struct {
		Received uint64            `json:"received"`
		ByNode   map[string]uint64 `json:"by_node"`
	} `json:"collector"`
}

func getCluster() (clusterView, error) {
	var v clusterView
	resp, err := http.Get(api + "/api/v1/cluster")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

func post(path string) error {
	resp, err := http.Post(api+path, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d", path, resp.StatusCode)
	}
	return nil
}

// waitConverged polls until the cluster reports the wanted running
// count with a converged membership view.
func waitConverged(running int, timeout time.Duration) (clusterView, error) {
	deadline := time.Now().Add(timeout)
	var last clusterView
	var lastErr error
	for time.Now().Before(deadline) {
		v, err := getCluster()
		if err == nil && v.Running == running && v.Converged {
			return v, nil
		}
		last, lastErr = v, err
		time.Sleep(100 * time.Millisecond)
	}
	return last, fmt.Errorf("timed out waiting for running=%d converged (last: %+v, err: %v)", running, last, lastErr)
}

// inject fires packets and waits for the collector ledger to account
// for every one of them on top of base. Returns the new ledger total.
func inject(packets int, base uint64, settle time.Duration) (uint64, error) {
	if err := post(fmt.Sprintf("/api/v1/inject?packets=%d&rate=40000", packets)); err != nil {
		return base, err
	}
	want := base + uint64(packets)
	deadline := time.Now().Add(settle)
	var got uint64
	for time.Now().Before(deadline) {
		v, err := getCluster()
		if err == nil {
			got = v.Collector.Received
			if got >= want {
				return got, nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return got, fmt.Errorf("delivered %d of %d injected (ledger %d, want %d)", got-base, packets, got, want)
}

// checkPlan fails unless every member in v reports the wanted plan, so
// a member that silently ran another placement cannot pass.
func checkPlan(v clusterView, want string) error {
	for id, m := range v.MemberTable {
		if got := m.Stats.Ingress.Plan; got != want {
			return fmt.Errorf("member %d reports plan %q, want %s", id, got, want)
		}
	}
	return nil
}

func run() error {
	bin, err := os.MkdirTemp("", "meshsmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bin)
	for _, cmd := range []string{"rbrouter", "rbmesh"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		build.Stdout, build.Stderr = os.Stdout, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("build %s: %w", cmd, err)
		}
	}
	for _, flags := range rows {
		plan := flags[len(flags)-1]
		fmt.Printf("meshsmoke: --- %v\n", flags)
		if err := story(bin, flags, plan); err != nil {
			return fmt.Errorf("%s: %w", plan, err)
		}
	}
	fmt.Println("meshsmoke: PASS")
	return nil
}

// story boots a 3-member mesh with the row's flags and runs the four
// phases against it.
func story(bin string, flags []string, plan string) error {
	// Fast failure detection so the smoke finishes in seconds; the
	// protocol constants under test are the same, only the timers shrink.
	mesh := exec.Command(filepath.Join(bin, "rbmesh"), append([]string{
		"-n", "3",
		"-rbrouter", filepath.Join(bin, "rbrouter"),
		"-addr", "127.0.0.1:8765",
		"-logdir", bin,
		"-heartbeat-ms", "50",
		"-dead-ms", "600",
	}, flags...)...)
	mesh.Stdout, mesh.Stderr = os.Stdout, os.Stderr
	if err := mesh.Start(); err != nil {
		return err
	}
	meshDone := make(chan error, 1)
	go func() { meshDone <- mesh.Wait() }()
	stop := func() {
		mesh.Process.Signal(syscall.SIGTERM)
		select {
		case <-meshDone:
		case <-time.After(10 * time.Second):
			mesh.Process.Kill()
		}
	}
	defer stop()

	// Phase 1: full mesh converges and carries traffic loss-free.
	if _, err := waitConverged(3, 15*time.Second); err != nil {
		return fmt.Errorf("phase 1 (boot): %w", err)
	}
	fmt.Println("meshsmoke: 3/3 members converged")
	ledger, err := inject(20000, 0, 15*time.Second)
	if err != nil {
		return fmt.Errorf("phase 1 (traffic): %w", err)
	}
	fmt.Printf("meshsmoke: full mesh delivered %d/%d\n", ledger, 20000)

	// The traffic above moved through the members' batched wire-I/O
	// layer: every socket read and write accounts a batch, so all four
	// counters must be live after 20000 delivered frames. The injector
	// sends equal 128 B frames, so some egress flush holds a run of them
	// for one destination, which leaves as one UDP GSO message: fewer
	// sends than frames. And the kernel took every frame.
	v0, err := getCluster()
	if err != nil {
		return fmt.Errorf("phase 1 (wire counters): %w", err)
	}
	if err := checkPlan(v0, plan); err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	t := v0.Totals
	if t.WireRxBatches == 0 || t.WireRxFrames == 0 || t.WireTxBatches == 0 || t.WireTxFrames == 0 {
		return fmt.Errorf("phase 1: wire I/O counters not live (rx %d/%d, tx %d/%d)",
			t.WireRxFrames, t.WireRxBatches, t.WireTxFrames, t.WireTxBatches)
	}
	if t.WireTxSends == 0 || t.WireTxSends == t.WireTxFrames {
		return fmt.Errorf("phase 1: no send was coalesced (%d frames in %d sends)", t.WireTxFrames, t.WireTxSends)
	}
	if t.TxErrors != 0 {
		return fmt.Errorf("phase 1: %d frames lost to failed sends (tx_errors)", t.TxErrors)
	}
	fmt.Printf("meshsmoke: wire I/O live — rx %d frames / %d batches (fill %.1f), tx %d frames / %d batches (fill %.1f) / %d sends (%.2f segments per send)\n",
		t.WireRxFrames, t.WireRxBatches, float64(t.WireRxFrames)/float64(t.WireRxBatches),
		t.WireTxFrames, t.WireTxBatches, float64(t.WireTxFrames)/float64(t.WireTxBatches),
		t.WireTxSends, float64(t.WireTxFrames)/float64(t.WireTxSends))

	// Phase 2: kill one member; survivors must declare it dead and
	// re-stripe (converged == every survivor's view matches reality).
	killed := time.Now()
	if err := post("/api/v1/kill?id=2"); err != nil {
		return fmt.Errorf("phase 2 (kill): %w", err)
	}
	v, err := waitConverged(2, 15*time.Second)
	if err != nil {
		return fmt.Errorf("phase 2 (death convergence): %w", err)
	}
	fmt.Printf("meshsmoke: member 2 dead, survivors converged (running %d/%d) — kill → converged %v, survivors' tx_drained %d\n",
		v.Running, v.Members, time.Since(killed).Round(time.Millisecond), v.Totals.TxDrained)

	// Phase 3: traffic injected after convergence is fully delivered by
	// the remaining members — the dead member's VLB share was
	// redistributed, not dropped.
	before := v.Collector.ByNode["2"]
	ledger, err = inject(2000, ledger, 15*time.Second)
	if err != nil {
		return fmt.Errorf("phase 3 (post-failure traffic): %w", err)
	}
	v, _ = getCluster()
	if after := v.Collector.ByNode["2"]; after != before {
		return fmt.Errorf("phase 3: dead member's prefix gained deliveries (%d → %d)", before, after)
	}
	fmt.Printf("meshsmoke: post-failure traffic delivered in full (ledger %d), dead prefix untouched\n", ledger)

	// Phase 4: restart, rejoin, converge back to full strength, and
	// carry traffic through all three members again.
	restarted := time.Now()
	if err := post("/api/v1/restart?id=2"); err != nil {
		return fmt.Errorf("phase 4 (restart): %w", err)
	}
	if v, err = waitConverged(3, 15*time.Second); err != nil {
		return fmt.Errorf("phase 4 (rejoin convergence): %w", err)
	}
	fmt.Printf("meshsmoke: member 2 rejoined — restart → converged %v, tx_drained %d\n",
		time.Since(restarted).Round(time.Millisecond), v.Totals.TxDrained)
	ledger, err = inject(1500, ledger, 15*time.Second)
	if err != nil {
		return fmt.Errorf("phase 4 (post-rejoin traffic): %w", err)
	}
	v, _ = getCluster()
	if v.Collector.ByNode["2"] <= before {
		return fmt.Errorf("phase 4: rejoined member received no traffic (by_node %v)", v.Collector.ByNode)
	}
	// Every survivor has re-striped twice by now; neither re-stripe may
	// have changed its plan.
	if err := checkPlan(v, plan); err != nil {
		return fmt.Errorf("phase 4: %w", err)
	}
	fmt.Printf("meshsmoke: rejoin carried traffic (ledger %d, by_node %v), every member %s\n", ledger, v.Collector.ByNode, plan)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "meshsmoke:", err)
		os.Exit(1)
	}
}
