package main

// The versioned admin API a member serves on its topology "api"
// address. Everything lives under /api/v1 with method checks and a JSON
// error envelope. The route endpoints write through the member's live
// FIB — updates commit RCU-style and reach the forwarding cores without
// stalling them. Stats are a one-element array, the shape rbmesh and
// the benchmark harness decode.
//
//	GET    /api/v1/stats   this member's snapshot
//	GET    /api/v1/routes  FIB listing + generation
//	POST   /api/v1/routes  batch add/withdraw, one FIB commit
//	DELETE /api/v1/routes  withdraw one prefix (?prefix= or JSON body)
//	GET    /api/v1/mesh    membership table + heartbeat RTTs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"

	"routebricks"
	"routebricks/internal/mesh"
	"routebricks/internal/stats"
)

// errorEnvelope is the JSON error shape of every non-2xx API response.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

type apiError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: apiError{Code: status, Message: fmt.Sprintf(format, args...)}})
}

// methodCheck wraps a handler with an allow-list; disallowed methods get
// a 405 envelope with the Allow header set.
func methodCheck(allow string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != allow {
			w.Header().Set("Allow", allow)
			writeError(w, http.StatusMethodNotAllowed, "%s not allowed; use %s", r.Method, allow)
			return
		}
		h(w, r)
	}
}

// routeJSON is the wire shape of one FIB route.
type routeJSON struct {
	Prefix  string `json:"prefix"`
	NextHop int    `json:"next_hop"`
}

// routesDoc is the GET /api/v1/routes response and the POST response
// envelope: the FIB generation the listing (or commit) corresponds to.
type routesDoc struct {
	Generation uint64      `json:"generation"`
	Count      int         `json:"count"`
	Routes     []routeJSON `json:"routes,omitempty"`
}

// routesUpdate is the POST /api/v1/routes request body: a batch of adds
// and withdraws applied as one FIB commit.
type routesUpdate struct {
	Add      []routeJSON `json:"add,omitempty"`
	Withdraw []string    `json:"withdraw,omitempty"`
}

// newAdminMux builds the member's HTTP surface. The routes endpoints
// write through nd's live FIB.
// meshCtrl, when non-nil, adds GET /api/v1/mesh: the member's view of
// the cluster — per-peer state and heartbeat RTT, incarnations, and the
// re-stripe generation each member advertises.
func newAdminMux(nd *node, meshCtrl *mesh.Node) *http.ServeMux {
	mux := http.NewServeMux()
	fib := nd.ingress.Routes()

	if meshCtrl != nil {
		mux.HandleFunc("/api/v1/mesh", methodCheck(http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, meshCtrl.Status())
		}))
	}

	mux.HandleFunc("/api/v1/stats", methodCheck(http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, []stats.NodeStats{nd.snapshot()})
	}))

	mux.HandleFunc("/api/v1/routes", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			list := fib.List()
			doc := routesDoc{Generation: fib.Generation(), Count: len(list)}
			doc.Routes = make([]routeJSON, len(list))
			for i, rt := range list {
				doc.Routes[i] = routeJSON{Prefix: rt.Prefix.String(), NextHop: rt.NextHop}
			}
			writeJSON(w, http.StatusOK, doc)

		case http.MethodPost:
			var upd routesUpdate
			if err := json.NewDecoder(r.Body).Decode(&upd); err != nil {
				writeError(w, http.StatusBadRequest, "bad request body: %v", err)
				return
			}
			if len(upd.Add) == 0 && len(upd.Withdraw) == 0 {
				writeError(w, http.StatusBadRequest, "empty update: supply add and/or withdraw")
				return
			}
			adds := make([]routebricks.Route, 0, len(upd.Add))
			for _, rj := range upd.Add {
				p, err := netip.ParsePrefix(rj.Prefix)
				if err != nil {
					writeError(w, http.StatusBadRequest, "bad prefix %q: %v", rj.Prefix, err)
					return
				}
				adds = append(adds, routebricks.Route{Prefix: p, NextHop: rj.NextHop})
			}
			dels := make([]netip.Prefix, 0, len(upd.Withdraw))
			for _, s := range upd.Withdraw {
				p, err := netip.ParsePrefix(s)
				if err != nil {
					writeError(w, http.StatusBadRequest, "bad prefix %q: %v", s, err)
					return
				}
				dels = append(dels, p)
			}
			gen, err := fib.Update(adds, dels)
			if err != nil {
				writeError(w, http.StatusUnprocessableEntity, "update rejected: %v", err)
				return
			}
			writeJSON(w, http.StatusOK, routesDoc{Generation: gen, Count: fib.Len()})

		case http.MethodDelete:
			spec := r.URL.Query().Get("prefix")
			if spec == "" {
				var rj routeJSON
				if err := json.NewDecoder(r.Body).Decode(&rj); err == nil {
					spec = rj.Prefix
				}
			}
			if spec == "" {
				writeError(w, http.StatusBadRequest, "missing prefix (?prefix= or JSON body)")
				return
			}
			p, err := netip.ParsePrefix(spec)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad prefix %q: %v", spec, err)
				return
			}
			gen, err := fib.Update(nil, []netip.Prefix{p})
			if err != nil {
				writeError(w, http.StatusUnprocessableEntity, "withdraw rejected: %v", err)
				return
			}
			writeJSON(w, http.StatusOK, routesDoc{Generation: gen, Count: fib.Len()})

		default:
			w.Header().Set("Allow", "GET, POST, DELETE")
			writeError(w, http.StatusMethodNotAllowed, "%s not allowed; use GET, POST or DELETE", r.Method)
		}
	})

	return mux
}
