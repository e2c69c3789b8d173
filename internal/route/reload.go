package route

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
)

// reload.go is the router's zero-downtime reconfiguration surface:
// Reconfigure swaps the backend set at runtime — cmd/pyroute drives it
// from SIGHUP (re-reading its backends file) and from PUT
// /v1/admin/backends — without restarting the process or disturbing
// requests in flight.
//
// Key-movement discipline: the ring hashes backend *names* (buildRing),
// so a reconfiguration that removes one node only remaps the keys that
// hashed to that node, and adding a node back restores its old keyspace.
// Kept backends keep their *backend objects, so health state, failure
// streaks, and flap-breaker history survive the swap. Removed backends
// finish their in-flight requests (attempts hold the object pointer, not
// a fleet index) and are reported as draining until they do.

// Reconfigure atomically replaces the backend set with urls. It returns
// the added and removed URL lists. Unknown-scheme or duplicate URLs and
// an empty set are rejected without touching the fleet.
func (rt *Router) Reconfigure(urls []string) (added, removed []string, err error) {
	if len(urls) == 0 {
		return nil, nil, errNoBackendsConfigured
	}
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		p, perr := url.Parse(u)
		if perr != nil || (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" {
			return nil, nil, fmt.Errorf("route: bad backend url %q", u)
		}
		if seen[u] {
			return nil, nil, fmt.Errorf("route: duplicate backend url %q", u)
		}
		seen[u] = true
	}

	rt.reconfigMu.Lock()
	defer rt.reconfigMu.Unlock()

	old := rt.fleet.Load()
	byURL := make(map[string]*backend, len(old.backends))
	for _, b := range old.backends {
		byURL[b.url] = b
	}

	next := &fleet{ring: buildRing(urls), backends: make([]*backend, 0, len(urls))}
	for _, u := range urls {
		if b, ok := byURL[u]; ok {
			// Kept: same object, health state persists.
			next.backends = append(next.backends, b)
			delete(byURL, u)
			continue
		}
		added = append(added, u)
		next.backends = append(next.backends, &backend{url: u, slot: rt.metrics.slotFor(u)})
	}
	for u, b := range byURL {
		removed = append(removed, u)
		b.removed.Store(true)
		rt.parting = append(rt.parting, b)
	}
	sort.Strings(removed) // map order; the API reply should be stable

	rt.fleet.Store(next)
	rt.metrics.reconfigs.Inc()
	rt.logEvent("fleet reconfigured",
		fmt.Sprintf("%d backends (+%d -%d)", len(urls), len(added), len(removed)),
		stHealthy, 0)
	return added, removed, nil
}

// drainingReport snapshots removed-but-still-busy backends and prunes
// the ones that have finished. Callers hold no locks.
func (rt *Router) drainingReport() []adminBackend {
	rt.reconfigMu.Lock()
	defer rt.reconfigMu.Unlock()
	var out []adminBackend
	live := rt.parting[:0]
	for _, b := range rt.parting {
		n := b.inflight.Load()
		if n == 0 {
			continue // drained out; forget it
		}
		live = append(live, b)
		st, fails := b.currentState()
		out = append(out, adminBackend{
			URL: b.url, State: st.String(), ConsecFails: fails,
			Inflight: n, Draining: true,
		})
	}
	rt.parting = live
	return out
}

// adminBackend is one backend row in the admin API.
type adminBackend struct {
	URL         string `json:"url"`
	State       string `json:"state"`
	ConsecFails int    `json:"consecFails,omitempty"`
	Inflight    int64  `json:"inflight"`
	Draining    bool   `json:"draining,omitempty"`
}

// adminBackendsGet is the GET /v1/admin/backends reply.
type adminBackendsGet struct {
	Backends []adminBackend `json:"backends"`
	Draining []adminBackend `json:"draining,omitempty"`
}

// adminBackendsPut is the PUT /v1/admin/backends request body.
type adminBackendsPut struct {
	Backends []string `json:"backends"`
}

// adminBackendsPutReply reports what a reconfiguration changed.
type adminBackendsPutReply struct {
	Backends int      `json:"backends"`
	Added    []string `json:"added,omitempty"`
	Removed  []string `json:"removed,omitempty"`
}

// handleAdminBackends is the fleet-reconfiguration API:
//
//	GET  /v1/admin/backends  current fleet (state, in-flight) plus
//	                         removed backends still draining
//	PUT  /v1/admin/backends  {"backends":["http://...", ...]} replaces
//	                         the set; POST is accepted as an alias
func (rt *Router) handleAdminBackends(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		backends := rt.fleet.Load().backends
		rep := adminBackendsGet{Backends: make([]adminBackend, len(backends))}
		for i, b := range backends {
			st, fails := b.currentState()
			rep.Backends[i] = adminBackend{
				URL: b.url, State: st.String(), ConsecFails: fails,
				Inflight: b.inflight.Load(),
			}
		}
		rep.Draining = rt.drainingReport()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(rep)

	case http.MethodPut, http.MethodPost:
		var putReq adminBackendsPut
		if err := json.NewDecoder(r.Body).Decode(&putReq); err != nil {
			rt.writeEnvelope(w, http.StatusBadRequest, "bad_json", "bad JSON: "+err.Error())
			return
		}
		for i := range putReq.Backends {
			putReq.Backends[i] = strings.TrimRight(putReq.Backends[i], "/")
		}
		added, removed, err := rt.Reconfigure(putReq.Backends)
		if err != nil {
			rt.writeEnvelope(w, http.StatusBadRequest, "bad_backends", err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(adminBackendsPutReply{
			Backends: len(putReq.Backends), Added: added, Removed: removed,
		})

	default:
		rt.writeEnvelope(w, http.StatusMethodNotAllowed, "method_not_allowed", "GET, PUT or POST")
	}
}
