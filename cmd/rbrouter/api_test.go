package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"

	"routebricks"
	"routebricks/internal/click"
	"routebricks/internal/stats"
)

// apiFixture builds one member of a 2-member mesh (sockets bound,
// socket loops never started — the API reads snapshots, writes through
// the FIB and swaps the plan) and serves its admin mux over httptest.
func apiFixture(t *testing.T) (*httptest.Server, *routebricks.RouteAdmin, *node) {
	t.Helper()
	fib, err := routebricks.NewFIB(
		routebricks.Route{Prefix: netip.MustParsePrefix("10.0.0.0/16"), NextHop: 0},
		routebricks.Route{Prefix: netip.MustParsePrefix("10.1.0.0/16"), NextHop: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := newNode(0, 2, fib, defaultConfig, true, 1, click.Parallel, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.shutdown)
	srv := httptest.NewServer(newAdminMux(nd, nil))
	t.Cleanup(srv.Close)
	return srv, fib, nd
}

// decodeBody decodes a response body into v and closes it.
func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestAdminAPIStatsAndController(t *testing.T) {
	srv, _, _ := apiFixture(t)

	resp, err := http.Get(srv.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/stats: %d", resp.StatusCode)
	}
	var snaps []stats.NodeStats
	decodeBody(t, resp, &snaps)
	// A one-element array: rbmesh and the benchmark harness decode
	// []stats.NodeStats and require exactly the member itself.
	if len(snaps) != 1 || snaps[0].ID != 0 {
		t.Fatalf("GET /api/v1/stats: %d nodes, want the member alone", len(snaps))
	}
	// The snapshot must carry the live FIB gauges through the ingress
	// pipeline: 2 routes at generation 1.
	if s := snaps[0]; s.Ingress.FIBGeneration != 1 || s.Ingress.FIBRoutes != 2 {
		t.Fatalf("FIB gauges: gen=%d routes=%d", s.Ingress.FIBGeneration, s.Ingress.FIBRoutes)
	}

	// The stats route is read-only: other methods get a 405 envelope.
	resp, err = http.Post(srv.URL+"/api/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/v1/stats: %d", resp.StatusCode)
	}
	var envelope errorEnvelope
	decodeBody(t, resp, &envelope)
	if envelope.Error.Code != http.StatusMethodNotAllowed || envelope.Error.Message == "" {
		t.Fatalf("error envelope: %+v", envelope)
	}

	resp, err = http.Get(srv.URL + "/api/v1/controller")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/controller: %d", resp.StatusCode)
	}
	var ctrls []struct {
		ID         int `json:"id"`
		Controller any `json:"controller"`
	}
	decodeBody(t, resp, &ctrls)
	if len(ctrls) != 1 || ctrls[0].ID != 0 || ctrls[0].Controller != nil {
		t.Fatalf("controller doc: %+v", ctrls)
	}
}

func TestAdminAPIRoutes(t *testing.T) {
	srv, fib, _ := apiFixture(t)

	resp, err := http.Get(srv.URL + "/api/v1/routes")
	if err != nil {
		t.Fatal(err)
	}
	var doc routesDoc
	decodeBody(t, resp, &doc)
	if doc.Generation != 1 || doc.Count != 2 || len(doc.Routes) != 2 {
		t.Fatalf("initial listing: %+v", doc)
	}

	// Batch add + withdraw: one commit, one generation.
	body := `{"add":[{"prefix":"192.0.2.0/24","next_hop":1},{"prefix":"198.51.100.0/24","next_hop":0}],"withdraw":["10.1.0.0/16"]}`
	resp, err = http.Post(srv.URL+"/api/v1/routes", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST routes: %d", resp.StatusCode)
	}
	decodeBody(t, resp, &doc)
	if doc.Generation != 2 || doc.Count != 3 {
		t.Fatalf("after batch: %+v", doc)
	}
	if fib.Generation() != 2 || fib.Len() != 3 {
		t.Fatalf("FIB after batch: gen=%d len=%d", fib.Generation(), fib.Len())
	}

	// DELETE by query parameter.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/routes?prefix=192.0.2.0/24", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE routes: %d", resp.StatusCode)
	}
	decodeBody(t, resp, &doc)
	if doc.Generation != 3 || doc.Count != 2 {
		t.Fatalf("after delete: %+v", doc)
	}

	// Error envelopes: bad body, empty batch, bad prefix, missing prefix,
	// disallowed method.
	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/api/v1/routes", "not json", http.StatusBadRequest},
		{http.MethodPost, "/api/v1/routes", "{}", http.StatusBadRequest},
		{http.MethodPost, "/api/v1/routes", `{"add":[{"prefix":"bogus","next_hop":1}]}`, http.StatusBadRequest},
		{http.MethodDelete, "/api/v1/routes", "", http.StatusBadRequest},
		{http.MethodPut, "/api/v1/routes", "{}", http.StatusMethodNotAllowed},
		{http.MethodGet, "/api/v1/replan", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		var envelope errorEnvelope
		decodeBody(t, resp, &envelope)
		if envelope.Error.Code != tc.want || envelope.Error.Message == "" {
			t.Fatalf("%s %s envelope: %+v", tc.method, tc.path, envelope)
		}
	}
	// Failed requests must not have committed anything.
	if fib.Generation() != 3 || fib.Len() != 2 {
		t.Fatalf("FIB disturbed by rejected requests: gen=%d len=%d", fib.Generation(), fib.Len())
	}
}

// TestAdminAPIReplan: the endpoint runs the member's own replan — the
// hermetic probe of the program in force, then one plan swap. A 1-core
// member can only be placed parallel.
func TestAdminAPIReplan(t *testing.T) {
	srv, _, nd := apiFixture(t)
	resp, err := http.Post(srv.URL+"/api/v1/replan", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST replan: %d", resp.StatusCode)
	}
	var out struct {
		Replanned  int      `json:"replanned"`
		Placements []string `json:"placements"`
	}
	decodeBody(t, resp, &out)
	if g := nd.ingress.Generation(); g != 1 || out.Replanned != 1 || len(out.Placements) != 1 || out.Placements[0] != "parallel" {
		t.Fatalf("replan: generation %d, response %+v", g, out)
	}
}
