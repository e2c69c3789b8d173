package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// maxBody bounds a forwarded request body, mirroring the backend's cap.
const maxBody = 1 << 20

// maxUpstreamBody bounds a backend response the router will buffer.
const maxUpstreamBody = 8 << 20

// Mux returns the router's route table.
func (rt *Router) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", rt.handleRun)
	mux.HandleFunc("/v1/programs", rt.handlePrograms)
	mux.HandleFunc("/v1/programs/", rt.handleProgram)
	mux.HandleFunc("/v1/metrics", rt.handleMetrics)
	mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	mux.HandleFunc("/v1/readyz", rt.handleReadyz)
	mux.HandleFunc("/v1/admin/backends", rt.handleAdminBackends)
	return mux
}

// Request outcomes, the router's top-level accounting. Indexes into the
// pyroute_requests_total counter family.
const (
	outOK          = iota // 2xx passed through
	outClientError        // backend 4xx passed through
	outShed               // backend 503 passed through (all alternatives spent)
	outNoBackends         // no routable backend could take the job
	outRetryBudget        // retry-safe failure, but the budget was dry
	outUpstream           // non-retryable upstream failure (may have executed)
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"ok", "client_error", "shed", "no_backends", "retry_budget_exhausted", "upstream_error",
}

// upstreamResp is one attempt's buffered backend response.
type upstreamResp struct {
	status     int
	body       []byte
	retryAfter string // verbatim Retry-After header ("" if none)
	latency    time.Duration
}

// routeResult is what forward hands back to the HTTP layer.
type routeResult struct {
	status     int
	body       []byte // response body, already JSON
	retryAfter string // Retry-After to propagate ("" if none)
	backend    string // backend that produced the response ("" if router-generated)
	attempts   int
	hedged     bool
	outcome    int
}

func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
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
			fmt.Sprintf("program exceeds %d bytes", maxBody))
		return
	}
	// The router parses just enough to route: the program source for the
	// content hash. Full validation stays at the backend; the original
	// bytes are forwarded untouched.
	var req api.RunRequestV1
	if err := json.Unmarshal(body, &req); err != nil {
		rt.writeEnvelope(w, http.StatusBadRequest, api.CodeBadJSON, "bad JSON: "+err.Error())
		return
	}
	if (req.Src == "") == (req.ProgramRef == "") {
		rt.writeEnvelope(w, http.StatusBadRequest, api.CodeMissingProgram,
			"exactly one of src and programRef is required")
		return
	}
	// Inline source and its reference hash to the SAME ring key (the ref
	// is the content digest ContentHash truncates), so both forms of the
	// same program pin to the same backend and share its warm store entry.
	var key uint64
	if req.ProgramRef != "" {
		var ok bool
		if key, ok = RefKey(req.ProgramRef); !ok {
			rt.writeEnvelope(w, http.StatusBadRequest, api.CodeBadProgram,
				"programRef must be a hex SHA-256")
			return
		}
	} else {
		key = ContentHash(req.Src)
	}

	id := r.Header.Get(api.HeaderRequestID)
	if id == "" || len(id) > 128 {
		id = "pr" + strconv.FormatUint(rt.nextID.Add(1), 10)
	}
	rt.earnRetryToken()

	start := time.Now()
	res := rt.forward(r.Context(), key, body, id, req.IdempotencyKey != "", req.ProgramRef)
	rt.metrics.requests.Inc(res.outcome)
	rt.logRequest(id, res, time.Since(start))

	w.Header().Set(api.HeaderRequestID, id)
	w.Header().Set("Content-Type", "application/json")
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	if res.backend != "" {
		w.Header().Set("X-Pyroute-Backend", res.backend)
	}
	w.Header().Set("X-Pyroute-Attempts", strconv.Itoa(res.attempts))
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// forward runs the attempt loop: primary by ring order, then retries
// against the remaining candidates under the retry budget. Failures
// that prove the job never executed are always re-routable; mid-flight
// failures are additionally re-routable when the request declared an
// idempotency key (idem) — the backends' dedup cache absorbs the case
// where the first attempt did execute, so a replay cannot double-run
// the job. The first mid-flight replay targets the SAME backend (if the
// job ran there, the recorded result answers instantly); later ones
// advance along the ring. ref, when non-empty, is the request's
// programRef: a backend 404 unknown_program triggers one read-through
// re-registration per request when the router remembers the source.
func (rt *Router) forward(ctx context.Context, key uint64, body []byte, id string, idem bool, ref string) routeResult {
	digest := api.Digest(body)
	cands := rt.candidates(key)
	if len(cands) == 0 {
		return rt.routerReject(http.StatusServiceUnavailable, outNoBackends,
			api.CodeNoBackends, "no routable backends", 2*rt.cfg.ProbeInterval)
	}
	// Single-node degradation: with one routable replica the router is a
	// pass-through — no re-routing targets, no hedging. (Dial errors may
	// still retry the same node below: a restarting replica is a
	// transient, and the job provably never ran.)
	single := len(cands) == 1

	maxAttempts := rt.cfg.MaxAttempts
	var slept time.Duration
	var lastShed *upstreamResp
	attempts, hedged := 0, false
	replayedSame := false // one same-node replay per request (idem only)
	repaired := false     // one unknown_program read-through repair per request

	for ci := 0; attempts < maxAttempts; {
		b := cands[ci%len(cands)]
		attemptID := id
		if attempts > 0 {
			attemptID = fmt.Sprintf("%s.r%d", id, attempts+1)
		}

		var resp *upstreamResp
		var err error
		var safe bool
		// Hedging is suppressed for keyed requests: the hedge races the
		// same body on a SECOND replica, and the dedup cache that makes
		// keyed requests exactly-once is per-replica — a slow (but
		// executing) primary plus a hedge would run the job on two
		// replicas, violating the fleet-wide max-executions<=1 oracle.
		// Keyed requests fall back to the replay discipline instead
		// (same-backend first), which is dedup-safe by construction.
		if attempts == 0 && rt.cfg.Hedge && !single && !idem {
			alt := cands[(ci+1)%len(cands)]
			var won bool
			resp, err, safe, won = rt.hedgedAttempt(ctx, b, alt, body, id, digest)
			if won {
				hedged = true
				b = alt // response came from the hedge target
			}
		} else {
			resp, err, safe = rt.attempt(ctx, b, body, attemptID, digest)
		}
		attempts++

		switch {
		case err == nil && resp.status != http.StatusServiceUnavailable:
			if ref != "" && !repaired && isUnknownProgram(resp.status, resp.body) &&
				rt.repairUnknownProgram(ctx, b, ref) {
				// The backend lacked the ref (fresh replica, expired or
				// invalidated entry) and the router re-registered the
				// remembered source there. The run never executed — the
				// rejection happened at resolution — so repeating the
				// SAME attempt on the SAME backend is unconditionally
				// safe. One repair per request: a second 404 means
				// something is deleting the entry under us, and looping
				// against that would hide it.
				repaired = true
				attempts-- // the resolution reject was not an execution attempt
				continue
			}
			out := outOK
			if resp.status >= 400 {
				out = outClientError
			}
			return routeResult{
				status: resp.status, body: resp.body, backend: b.url,
				attempts: attempts, hedged: hedged, outcome: out,
			}

		case err == nil: // 503: the backend rejected before execution
			lastShed = resp
			if single || attempts >= maxAttempts {
				// Nowhere else to go: pass the shed (and its hint)
				// through so the client backs off instead of parking
				// here.
				return routeResult{
					status: http.StatusServiceUnavailable, body: resp.body,
					retryAfter: resp.retryAfter, backend: b.url,
					attempts: attempts, hedged: hedged, outcome: outShed,
				}
			}
			if !rt.spendRetryToken() {
				rt.metrics.retryBudgetExhausted.Inc()
				return routeResult{
					status: http.StatusServiceUnavailable, body: resp.body,
					retryAfter: resp.retryAfter, backend: b.url,
					attempts: attempts, hedged: hedged, outcome: outShed,
				}
			}
			// A shed is a load signal, not a death: re-route to the next
			// ring candidate immediately, no backoff.
			rt.metrics.retries.Inc()
			ci++

		case safe: // connect-level failure: the job never reached a worker
			if attempts >= maxAttempts {
				return rt.routerReject(http.StatusServiceUnavailable, outNoBackends,
					api.CodeNoBackends,
					fmt.Sprintf("backend %s unreachable after %d attempts: %v", b.url, attempts, err),
					backoffMax)
			}
			if !rt.spendRetryToken() {
				rt.metrics.retryBudgetExhausted.Inc()
				return rt.routerReject(http.StatusServiceUnavailable, outRetryBudget,
					api.CodeRetryBudget,
					"retry budget exhausted: "+err.Error(), backoffMax)
			}
			rt.metrics.retries.Inc()
			if single || len(cands) == 1 {
				// Same node again: back off (exponential, jittered,
				// bounded) so a restarting replica gets air.
				back := rt.jitter(rt.backoffFor(attempts, lastShed))
				if slept+back > maxRetryWait {
					return rt.routerReject(http.StatusServiceUnavailable, outNoBackends,
						api.CodeNoBackends, "backend unreachable: "+err.Error(), backoffMax)
				}
				slept += back
				if !sleepCtx(ctx, back) {
					return rt.routerReject(http.StatusServiceUnavailable, outNoBackends,
						api.CodeNoBackends, "canceled while backing off", backoffMax)
				}
			} else {
				ci++ // different node, immediately
			}

		default: // unsafe: the job may have executed
			if !idem {
				// Without an idempotency key a replay could double-run the
				// job; surface the failure instead.
				return rt.routerReject(http.StatusBadGateway, outUpstream,
					api.CodeUpstreamError,
					fmt.Sprintf("backend %s failed mid-flight (not retried: the job may have executed): %v", b.url, err),
					0)
			}
			// Idempotent-declared: the backend's dedup cache makes the
			// replay safe — if the interrupted attempt executed, the
			// replay returns its recorded result instead of running
			// again.
			if attempts >= maxAttempts {
				return rt.routerReject(http.StatusBadGateway, outUpstream,
					api.CodeUpstreamError,
					fmt.Sprintf("backend %s failed mid-flight; idempotent replays exhausted after %d attempts: %v", b.url, attempts, err),
					0)
			}
			if !rt.spendRetryToken() {
				rt.metrics.retryBudgetExhausted.Inc()
				return rt.routerReject(http.StatusBadGateway, outRetryBudget,
					api.CodeRetryBudget,
					"mid-flight failure, retry budget exhausted: "+err.Error(), 0)
			}
			rt.metrics.retries.Inc()
			rt.metrics.idemReplays.Inc()
			// Give the wounded path a breath, bounded by the request's
			// total sleep budget.
			back := rt.jitter(rt.cfg.BackoffBase)
			if slept+back > maxRetryWait || !sleepCtx(ctx, back) {
				return rt.routerReject(http.StatusBadGateway, outUpstream,
					api.CodeUpstreamError, "mid-flight failure: "+err.Error(), 0)
			}
			slept += back
			if replayedSame || single {
				ci++ // same node already re-tried once: advance the ring
			} else {
				replayedSame = true // replay the same node first
			}
		}
	}
	// Attempts exhausted on sheds.
	res := rt.routerReject(http.StatusServiceUnavailable, outShed,
		api.CodeNoBackends, "every candidate shed the job", backoffMax)
	if lastShed != nil {
		res.body = lastShed.body
		res.retryAfter = lastShed.retryAfter
	}
	res.attempts = attempts
	res.hedged = hedged
	return res
}

// backoffFor derives the pre-retry sleep for attempt n, flooring it with
// the backend's Retry-After hint when one was given.
func (rt *Router) backoffFor(n int, shed *upstreamResp) time.Duration {
	back := rt.cfg.BackoffBase << uint(n-1)
	if back > backoffMax || back <= 0 {
		back = backoffMax
	}
	if shed != nil && shed.retryAfter != "" {
		if hint, ok := parseRetryAfter(shed.retryAfter, time.Now()); ok && hint > back {
			back = hint
		}
	}
	return back
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110:
// either delta-seconds ("3") or an HTTP-date ("Fri, 07 Aug 2026
// 11:00:00 GMT", and the obsolete RFC 850 / asctime forms via
// http.ParseTime). Returns ok=false for garbage and for negative
// deltas; a date already in the past parses to zero (retry now).
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// sleepCtx sleeps d unless ctx ends first; reports whether it slept out.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attempt forwards the request bytes to one backend and buffers the
// response. The third return reports retry safety: true means the job
// provably never executed (the connection was never established, or the
// backend's integrity gate rejected damaged request bytes before
// parsing), so re-routing cannot double-execute it.
func (rt *Router) attempt(ctx context.Context, b *backend, body []byte, attemptID, digest string) (*upstreamResp, error, bool) {
	rt.metrics.backendRequests.Inc(b.slot)
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderRequestID, attemptID)
	req.Header.Set(api.HeaderContentDigest, digest)

	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		safe := dialFailure(err)
		rt.metrics.backendFailures.Inc(b.slot)
		if safe {
			if b.recordFailure(rt.cfg.FailThreshold, time.Now()) {
				rt.metrics.ejections.Inc(b.slot)
				st, fails := b.currentState()
				rt.logEvent("backend ejected", b.url, st, fails)
			}
		}
		return nil, err, safe
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody))
	if err != nil {
		// The response started and died: the job may have executed.
		rt.metrics.backendFailures.Inc(b.slot)
		return nil, err, false
	}
	lat := time.Since(start)
	// Any complete HTTP exchange — a shed included — proves the backend
	// alive; clear its failure streak and feed the hedge histogram.
	b.recordSuccess()
	rt.lat.Observe(lat)
	rt.metrics.upstreamLatency.Observe(b.slot, lat)

	// Response-integrity gate: the backend stamps X-Pyserve-Digest on
	// every /v1/run response. A mismatch means the bytes were damaged
	// between the backend and here; a MISSING digest on a 2xx means the
	// damage ate the header itself (or the body was substituted
	// wholesale). Either way the response is untrustworthy — treat it as
	// a mid-flight failure (the job ran; only the answer was lost), never
	// pass the bytes to the client.
	if want := resp.Header.Get(api.HeaderResultDigest); want != "" {
		if api.Digest(rb) != want {
			rt.metrics.integrityFailures.Inc()
			rt.metrics.backendFailures.Inc(b.slot)
			return nil, fmt.Errorf("response from %s failed integrity check", b.url), false
		}
	} else if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		rt.metrics.integrityFailures.Inc()
		rt.metrics.backendFailures.Inc(b.slot)
		return nil, fmt.Errorf("2xx response from %s missing %s", b.url, api.HeaderResultDigest), false
	}

	// A 422 integrity_violation means the REQUEST bytes were damaged on
	// the way out: the backend refused them before parsing, so the job
	// provably never executed — retry-safe, and not the backend's fault.
	if resp.StatusCode == http.StatusUnprocessableEntity {
		var env api.ErrorEnvelope
		if json.Unmarshal(rb, &env) == nil && env.Err.Code == api.CodeIntegrity {
			rt.metrics.integrityFailures.Inc()
			return nil, fmt.Errorf("request damaged in transit to %s (backend integrity reject)", b.url), true
		}
	}
	return &upstreamResp{
		status:     resp.StatusCode,
		body:       rb,
		retryAfter: resp.Header.Get("Retry-After"),
		latency:    lat,
	}, nil, false
}

// dialFailure reports whether err proves the request never reached the
// backend: the dial itself failed (refused, unreachable, dial timeout).
// Anything past an established connection — reset mid-read, EOF,
// response timeout — may mean the job executed, so it is never
// retry-safe.
func dialFailure(err error) bool {
	var op *net.OpError
	for e := err; e != nil; e = errors.Unwrap(e) {
		if errors.As(e, &op) {
			return op.Op == "dial"
		}
	}
	return false
}

// hedgedAttempt runs the primary attempt and, if it is still in flight
// after the histogram-derived hedge delay, races a duplicate on alt.
// The first acceptable response (no transport error, not a shed) wins
// and the loser's context is canceled. Returns won=true when the
// hedge's response is the one returned.
func (rt *Router) hedgedAttempt(parent context.Context, primary, alt *backend, body []byte, id, digest string) (*upstreamResp, error, bool, bool) {
	type res struct {
		resp *upstreamResp
		err  error
		safe bool
	}
	ctx1, cancel1 := context.WithCancel(parent)
	ctx2, cancel2 := context.WithCancel(parent)
	defer cancel1()
	defer cancel2()

	ch1 := make(chan res, 1)
	go func() {
		r, err, safe := rt.attempt(ctx1, primary, body, id, digest)
		ch1 <- res{r, err, safe}
	}()

	timer := time.NewTimer(rt.hedgeDelay())
	defer timer.Stop()
	select {
	case r1 := <-ch1:
		return r1.resp, r1.err, r1.safe, false
	case <-timer.C:
	}

	// Primary is slow: launch the hedge.
	rt.metrics.hedges.Inc()
	ch2 := make(chan res, 1)
	go func() {
		r, err, safe := rt.attempt(ctx2, alt, body, id+".h2", digest)
		ch2 <- res{r, err, safe}
	}()

	acceptable := func(r res) bool {
		return r.err == nil && r.resp.status != http.StatusServiceUnavailable
	}
	select {
	case r1 := <-ch1:
		if acceptable(r1) {
			cancel2()
			return r1.resp, r1.err, r1.safe, false
		}
		r2 := <-ch2
		if acceptable(r2) {
			rt.metrics.hedgeWins.Inc()
			return r2.resp, r2.err, r2.safe, true
		}
		return r1.resp, r1.err, r1.safe, false
	case r2 := <-ch2:
		if acceptable(r2) {
			cancel1()
			rt.metrics.hedgeWins.Inc()
			return r2.resp, r2.err, r2.safe, true
		}
		r1 := <-ch1
		return r1.resp, r1.err, r1.safe, false
	}
}

// routerReject builds a router-generated error result with the /v1
// machine-readable envelope and a Retry-After hint for 503s.
func (rt *Router) routerReject(status, outcome int, code, msg string, retryHint time.Duration) routeResult {
	body, _ := json.Marshal(api.ErrorEnvelope{Err: api.Error{Code: code, Message: msg}})
	body = append(body, '\n')
	res := routeResult{status: status, body: body, outcome: outcome, attempts: 1}
	if status == http.StatusServiceUnavailable && retryHint > 0 {
		secs := int((retryHint + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		res.retryAfter = strconv.Itoa(secs)
	}
	return res
}

// writeEnvelope writes a router-side rejection directly.
func (rt *Router) writeEnvelope(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(api.ErrorEnvelope{Err: api.Error{Code: code, Message: msg}})
}

// handleHealthz reports router liveness: 200 while at least one backend
// is routable, with the per-backend state table either way.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.writeHealth(w)
}

// handleReadyz mirrors healthz: a router is ready exactly when it can
// route somewhere.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rt.writeHealth(w)
}

type routerHealth struct {
	Ok       bool            `json:"ok"`
	Backends []backendHealth `json:"backends"`
}

func (rt *Router) writeHealth(w http.ResponseWriter) {
	ok, report := rt.healthReport()
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int((2*rt.cfg.ProbeInterval+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(routerHealth{Ok: ok, Backends: report})
}

// requestLog is the router's structured per-request log line.
type requestLog struct {
	Time      string  `json:"ts"`
	RequestID string  `json:"requestId"`
	Backend   string  `json:"backend,omitempty"`
	Attempts  int     `json:"attempts"`
	Hedged    bool    `json:"hedged,omitempty"`
	Status    int     `json:"status"`
	Outcome   string  `json:"outcome"`
	TotalMs   float64 `json:"totalMs"`
}

func (rt *Router) logRequest(id string, res routeResult, total time.Duration) {
	if rt.logw == nil {
		return
	}
	line, err := json.Marshal(requestLog{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: id,
		Backend:   res.backend,
		Attempts:  res.attempts,
		Hedged:    res.hedged,
		Status:    res.status,
		Outcome:   outcomeNames[res.outcome],
		TotalMs:   float64(total) / float64(time.Millisecond),
	})
	if err != nil {
		return
	}
	rt.logMu.Lock()
	_, _ = rt.logw.Write(append(line, '\n'))
	rt.logMu.Unlock()
}
