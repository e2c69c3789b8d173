package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/progstore"
)

// Program-registration forwarding.
//
// A program registered through the router must be runnable by reference
// on whichever backend the ring picks — now, and after reconfigs,
// restarts, and store evictions. Two mechanisms cover that:
//
//   - POST /v1/programs broadcasts the registration to every live
//     backend, so the ref resolves fleet-wide immediately (retries and
//     hedges land on non-owner replicas).
//   - The router remembers ref → source for registrations that passed
//     through it, and when a forwarded run-by-reference request comes
//     back 404 unknown_program (fresh replica, TTL expiry, explicit
//     invalidation), it re-registers the source on that backend and
//     retries once — read-through repair, invisible to the client.
//
// The memory is an optimization, not a correctness dependency: a ref
// registered directly with a backend (bypassing the router) still
// routes correctly, it just surfaces the backend's 404 when the entry
// is gone.

// progRecord is the router's memory of one registration.
type progRecord struct {
	name string
	src  string
}

// The memory is an sfcache (LRU, TTL from last use). Registrations are
// idempotent and clients can always re-register, so losing a memory
// only costs a future 404.
const (
	// progMemoryCap bounds the ref → source memory.
	progMemoryCap = 4096
	// progMemoryTTL reclaims registrations that were neither re-posted
	// nor needed for a repair for this long. It outlives the backends'
	// default store TTL, so a repair can follow a backend's expiry.
	progMemoryTTL = 24 * time.Hour
)

// rememberProgram records a registration for read-through repair.
func (rt *Router) rememberProgram(ref, name, src string) {
	rt.progs.Do(context.Background(), ref, func() (progRecord, bool, error) {
		return progRecord{name: name, src: src}, true, nil
	})
}

// recallProgram looks up a remembered registration.
func (rt *Router) recallProgram(ref string) (progRecord, bool) { return rt.progs.Get(ref) }

// forgetProgram drops a ref from the memory (fleet-wide DELETE).
func (rt *Router) forgetProgram(ref string) { rt.progs.Delete(ref) }

// registerOn posts one registration to one backend, returning the
// backend's response body and status. Control-plane path: no retry
// budget, no hedging.
func (rt *Router) registerOn(ctx context.Context, b *backend, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/programs", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, rb, nil
}

// handlePrograms is POST /v1/programs on the router: validate, remember,
// and broadcast the registration to every live backend so the ref
// resolves wherever the ring (or a retry) sends the run. Like the other
// admin-plane surface (PUT /v1/admin/backends), this endpoint is
// auth-free; deployments front it with their own auth.
func (rt *Router) handlePrograms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeEnvelope(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		rt.writeEnvelope(w, http.StatusBadRequest, api.CodeBadJSON, "read body: "+err.Error())
		return
	}
	if len(body) > maxBody {
		rt.writeEnvelope(w, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
			fmt.Sprintf("request exceeds %d bytes", maxBody))
		return
	}
	var req api.RegisterRequestV1
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeEnvelope(w, http.StatusBadRequest, api.CodeBadJSON, "bad JSON: "+err.Error())
		return
	}
	if req.Src == "" {
		rt.writeEnvelope(w, http.StatusBadRequest, api.CodeMissingSrc, "missing src")
		return
	}

	ref := progstore.Ref(req.Src)
	key, _ := RefKey(ref)
	// Owner-first order: the ring owner's reply is the one passed
	// through (its store is the one run-by-reference traffic hits
	// first), the rest of the broadcast warms the fallbacks.
	cands := rt.candidates(key)
	if len(cands) == 0 {
		rt.writeEnvelope(w, http.StatusServiceUnavailable, api.CodeNoBackends, "no routable backends")
		return
	}
	var passStatus int
	var passBody []byte
	for i, b := range cands {
		status, rb, err := rt.registerOn(r.Context(), b, body)
		if err != nil {
			continue
		}
		if i == 0 || passBody == nil {
			passStatus, passBody = status, rb
		}
		if status >= 400 && status < 500 {
			// Deterministic rejection (bad source): every replica would
			// answer identically — pass it through, register nowhere else.
			passStatus, passBody = status, rb
			break
		}
	}
	if passBody == nil {
		rt.writeEnvelope(w, http.StatusServiceUnavailable, api.CodeNoBackends,
			"no backend accepted the registration")
		return
	}
	if passStatus == http.StatusOK {
		name := req.Name
		if name == "" {
			name = "program.py"
		}
		rt.rememberProgram(ref, name, req.Src)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(passStatus)
	_, _ = w.Write(passBody)
}

// handleProgram is GET/DELETE /v1/programs/{ref} on the router: GET
// forwards to the ref's ring owner (whose store serves its traffic);
// DELETE broadcasts the invalidation fleet-wide — a half-invalidated
// fleet would keep answering by-reference runs from surviving replicas.
func (rt *Router) handleProgram(w http.ResponseWriter, r *http.Request) {
	ref := strings.TrimPrefix(r.URL.Path, "/v1/programs/")
	key, ok := RefKey(ref)
	if !ok || !progstore.ValidRef(ref) {
		rt.writeEnvelope(w, http.StatusBadRequest, api.CodeBadProgram, "programRef must be a hex SHA-256")
		return
	}
	cands := rt.candidates(key)
	if len(cands) == 0 {
		rt.writeEnvelope(w, http.StatusServiceUnavailable, api.CodeNoBackends, "no routable backends")
		return
	}
	switch r.Method {
	case http.MethodGet:
		for _, b := range cands {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.url+"/v1/programs/"+ref, nil)
			if err != nil {
				continue
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				continue
			}
			rb, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
			resp.Body.Close()
			if err != nil {
				continue
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(resp.StatusCode)
			_, _ = w.Write(rb)
			return
		}
		rt.writeEnvelope(w, http.StatusServiceUnavailable, api.CodeNoBackends, "no backend answered")
	case http.MethodDelete:
		var passStatus int
		var passBody []byte
		for _, b := range cands {
			req, err := http.NewRequestWithContext(r.Context(), http.MethodDelete, b.url+"/v1/programs/"+ref, nil)
			if err != nil {
				continue
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				continue
			}
			rb, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
			resp.Body.Close()
			if err != nil {
				continue
			}
			// Any replica's 200 makes the fleet-wide delete a success;
			// a replica that never held the entry 404s harmlessly.
			if resp.StatusCode == http.StatusOK || passBody == nil {
				passStatus, passBody = resp.StatusCode, rb
			}
		}
		if passBody == nil {
			rt.writeEnvelope(w, http.StatusServiceUnavailable, api.CodeNoBackends, "no backend answered")
			return
		}
		rt.forgetProgram(ref)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(passStatus)
		_, _ = w.Write(passBody)
	default:
		rt.writeEnvelope(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET or DELETE only")
	}
}

// repairUnknownProgram handles a backend's 404 unknown_program on a
// forwarded run-by-reference request: if the router remembers the
// source, re-register it on that backend (read-through repair) and
// report that the attempt is worth repeating. The run provably never
// executed — the backend rejected it at resolution — so the repeat is
// always safe, keyed or not.
func (rt *Router) repairUnknownProgram(ctx context.Context, b *backend, ref string) bool {
	rec, ok := rt.recallProgram(ref)
	if !ok {
		return false
	}
	body, err := json.Marshal(api.RegisterRequestV1{Name: rec.name, Src: rec.src})
	if err != nil {
		return false
	}
	status, _, err := rt.registerOn(ctx, b, body)
	return err == nil && status == http.StatusOK
}

// isUnknownProgram reports whether a buffered backend response is the
// 404 unknown_program envelope.
func isUnknownProgram(status int, body []byte) bool {
	if status != http.StatusNotFound {
		return false
	}
	var env api.ErrorEnvelope
	return json.Unmarshal(body, &env) == nil && env.Err.Code == api.CodeUnknownProgram
}
