package main

// The aggregate cluster API. rbmesh is the only process that knows the
// whole cluster — each rbrouter member knows its own counters and its
// own membership view — so this mux is where the pieces meet: it polls
// every member's /api/v1/stats and /api/v1/mesh, folds them into one
// document with cluster totals and a convergence verdict, and exposes
// the §6 failure-story verbs.
//
//	GET  /api/v1/cluster   aggregate snapshot (per-member mesh+stats, totals, collector ledger)
//	POST /api/v1/kill      ?id=K  hard-kill member K (failure injection)
//	POST /api/v1/restart   ?id=K  respawn member K (rejoin)
//	POST /api/v1/inject    ?packets=N[&rate=pps]  inject traffic at running members

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"time"

	"routebricks/internal/cluster"
	"routebricks/internal/mesh"
	"routebricks/internal/netio"
	"routebricks/internal/pkt"
	"routebricks/internal/stats"
	"routebricks/internal/trafficgen"
)

// apiClient keeps member polls fast: a stuck member must not hang the
// aggregate snapshot.
var apiClient = &http.Client{Timeout: 2 * time.Second}

// memberDoc is one member's slice of the aggregate snapshot.
type memberDoc struct {
	ID      int              `json:"id"`
	Running bool             `json:"running"`
	Exit    string           `json:"exit,omitempty"`  // last exit status when not running
	Error   string           `json:"error,omitempty"` // API poll failure when running
	Mesh    *mesh.Status     `json:"mesh,omitempty"`
	Stats   *stats.NodeStats `json:"stats,omitempty"`
}

// clusterDoc is the GET /api/v1/cluster response.
type clusterDoc struct {
	Members     int         `json:"members"`
	Running     int         `json:"running"`
	MemberTable []memberDoc `json:"member_table"`

	// Converged is true when every reachable running member's membership
	// view matches reality: each running member alive, each killed
	// member declared dead (not merely suspect) — i.e. every survivor
	// has re-striped around the actual failure set.
	Converged bool `json:"converged"`

	Totals    stats.NodeTotals `json:"totals"`
	Collector collectorDoc     `json:"collector"`
}

type collectorDoc struct {
	Received uint64         `json:"received"`
	ByNode   map[int]uint64 `json:"by_node"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": map[string]any{"code": status, "message": fmt.Sprintf(format, args...)}})
}

// pollMember fetches one running member's mesh and stats documents.
func pollMember(api string) (*mesh.Status, *stats.NodeStats, error) {
	var ms mesh.Status
	resp, err := apiClient.Get("http://" + api + "/api/v1/mesh")
	if err != nil {
		return nil, nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&ms)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	var ns []stats.NodeStats
	resp, err = apiClient.Get("http://" + api + "/api/v1/stats")
	if err != nil {
		return &ms, nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&ns)
	resp.Body.Close()
	if err != nil || len(ns) == 0 {
		return &ms, nil, fmt.Errorf("stats decode: %v", err)
	}
	return &ms, &ns[0], nil
}

// snapshot builds the aggregate cluster document.
func (l *launcher) snapshot() clusterDoc {
	doc := clusterDoc{Members: len(l.members)}
	running := make([]bool, len(l.members))
	for i, m := range l.members {
		running[i], _ = m.status()
		if running[i] {
			doc.Running++
		}
	}
	doc.Converged = true
	var nodeStats []stats.NodeStats
	for i, m := range l.members {
		md := memberDoc{ID: i, Running: running[i]}
		if !running[i] {
			_, md.Exit = m.status()
			doc.MemberTable = append(doc.MemberTable, md)
			continue
		}
		ms, ns, err := pollMember(l.topo.Members[i].API)
		if err != nil {
			md.Error = err.Error()
			doc.Converged = false
		}
		md.Mesh, md.Stats = ms, ns
		if ns != nil {
			nodeStats = append(nodeStats, *ns)
		}
		// This member's view must match reality: every running member
		// alive, every killed member declared dead (suspect means its
		// VLB share is still striped there — not yet converged).
		if ms != nil {
			for _, p := range ms.Peers {
				ok := p.State == "self" || p.State == "alive"
				if running[p.ID] && !ok || !running[p.ID] && p.State != "dead" {
					doc.Converged = false
				}
			}
		}
		doc.MemberTable = append(doc.MemberTable, md)
	}
	doc.Totals = stats.SumNodes(nodeStats)
	doc.Collector.Received, doc.Collector.ByNode = l.collectorCounts()
	return doc
}

// inject sends packets flows aimed at running members' prefixes,
// entering the mesh at running members' external ports (a flow always
// enters at the same port, keyed on its source address). Returns the
// number sent.
func (l *launcher) inject(packets, rate int) (int, error) {
	var via []int
	for i, m := range l.members {
		if r, _ := m.status(); r {
			via = append(via, i)
		}
	}
	if len(via) == 0 {
		return 0, fmt.Errorf("no running members")
	}
	// Destinations only inside running members' prefixes: a packet for a
	// dead node's prefix has no owner to deliver it.
	var addrs []netip.Addr
	for _, d := range via {
		for h := 0; h < 8; h++ {
			addrs = append(addrs, cluster.NodeOwnedAddr(d, uint16(h)<<8|1))
		}
	}
	src := trafficgen.New(trafficgen.Config{Seed: 1, Sizes: trafficgen.Fixed(128), DstAddrs: addrs})

	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	ext := make([]*net.UDPAddr, len(via))
	for k, d := range via {
		if ext[k], err = net.ResolveUDPAddr("udp4", l.topo.Members[d].Ext); err != nil {
			return 0, err
		}
	}
	if rate <= 0 {
		rate = 20000
	}
	interval := time.Second / time.Duration(rate)
	// Frames go out in 8-frame bursts matching the pacing granularity —
	// one sendmmsg per burst on the fast path, with a destination per
	// frame (WriteScatter), so a burst spanning several entry members
	// still costs one syscall.
	w := netio.NewBatchWriter(conn, netio.Config{})
	burst := make([]*pkt.Packet, 0, 8)
	dests := make([]*net.UDPAddr, 0, 8)
	sent := 0
	start := time.Now()
	flush := func() error {
		if len(burst) == 0 {
			return nil
		}
		n, err := w.WriteScatter(burst, dests)
		sent += n
		for _, p := range burst {
			pkt.DefaultPool.Put(p) // the kernel copied at syscall time
		}
		burst, dests = burst[:0], dests[:0]
		return err
	}
	for i := 0; i < packets; i++ {
		p := src.Next()
		burst = append(burst, p)
		dests = append(dests, ext[int(p.IPv4().SrcUint32())%len(ext)])
		if i%8 == 7 {
			if err := flush(); err != nil {
				return sent, err
			}
			// Pace against the clock, not per burst: Sleep rounds short waits
			// up, and the bursts after an oversleep catch up unslept.
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * interval)))
		}
	}
	if err := flush(); err != nil {
		return sent, err
	}
	return sent, nil
}

// memberID parses the ?id= parameter against the member table.
func (l *launcher) memberID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		return 0, fmt.Errorf("missing or bad ?id=")
	}
	if id < 0 || id >= len(l.members) {
		return 0, fmt.Errorf("id %d out of range [0,%d)", id, len(l.members))
	}
	return id, nil
}

func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "%s not allowed; use POST", r.Method)
			return
		}
		h(w, r)
	}
}

// newMeshMux builds the rbmesh HTTP surface.
func newMeshMux(l *launcher) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("/api/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, "%s not allowed; use GET", r.Method)
			return
		}
		writeJSON(w, http.StatusOK, l.snapshot())
	})

	mux.HandleFunc("/api/v1/kill", post(func(w http.ResponseWriter, r *http.Request) {
		id, err := l.memberID(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := l.kill(id); err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"killed": id})
	}))

	mux.HandleFunc("/api/v1/restart", post(func(w http.ResponseWriter, r *http.Request) {
		id, err := l.memberID(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := l.spawn(id); err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"restarted": id})
	}))

	mux.HandleFunc("/api/v1/inject", post(func(w http.ResponseWriter, r *http.Request) {
		packets, err := strconv.Atoi(r.URL.Query().Get("packets"))
		if err != nil || packets <= 0 || packets > 1<<20 {
			writeError(w, http.StatusBadRequest, "need ?packets= in (0,%d]", 1<<20)
			return
		}
		rate, _ := strconv.Atoi(r.URL.Query().Get("rate"))
		sent, err := l.inject(packets, rate)
		if err != nil {
			writeError(w, http.StatusConflict, "injected %d then: %v", sent, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"sent": sent})
	}))

	return mux
}
