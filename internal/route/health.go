package route

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// backendState is the health state machine's position for one backend.
type backendState int

const (
	// stHealthy: routable. Probes pass, traffic flows.
	stHealthy backendState = iota
	// stDrained: alive but not ready (/v1/readyz said 503 while
	// /v1/healthz still answers). Not routable, but NOT ejected: no
	// failure threshold, no readmit cooldown — the instant readiness
	// returns, traffic does. This is how a node drains without the
	// router treating it as dead.
	stDrained
	// stEjected: the failure threshold tripped (probe or traffic
	// connect failures). No traffic; after ReadmitAfter the prober
	// moves it to half-open.
	stEjected
	// stHalfOpen: cooldown expired; the next probe decides — pass
	// readmits (budget permitting), fail re-ejects.
	stHalfOpen
)

var stateNames = map[backendState]string{
	stHealthy:  "healthy",
	stDrained:  "drained",
	stEjected:  "ejected",
	stHalfOpen: "half-open",
}

func (s backendState) String() string { return stateNames[s] }

// backend is one replica behind the router. Backend objects survive
// Reconfigure: a URL kept across a fleet swap keeps its object, so its
// health state, failure streak, and flap-breaker history persist.
type backend struct {
	url string // base URL, e.g. http://127.0.0.1:9001
	// slot is the backend's stable index into the per-backend metric
	// families (-1 when the router runs unobserved). Unlike a
	// fleet index it never changes or collides across reconfigurations.
	slot int

	// inflight counts attempts currently holding this backend. A backend
	// removed by Reconfigure serves its in-flight requests to completion
	// (requests hold the pointer, not a fleet index); the router reports
	// it as draining until this reaches zero.
	inflight atomic.Int64
	// removed marks the backend as dropped from the fleet: no longer
	// probed, no longer a candidate, finishing what it already has.
	removed atomic.Bool

	mu          sync.Mutex
	state       backendState
	consecFails int       // consecutive connect/probe failures
	ejectedAt   time.Time // when state last became stEjected
	readmits    []time.Time
}

// routable reports whether live traffic may be sent to the backend.
func (b *backend) routable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == stHealthy
}

// drained reports whether the backend is alive but not ready — the
// last-resort candidate pool when nothing in the fleet is healthy.
func (b *backend) drained() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == stDrained
}

func (b *backend) currentState() (backendState, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.consecFails
}

// recordSuccess notes a successful exchange (probe pass or a served
// request). It clears the failure streak; only the prober transitions
// out of ejection, so a half-open backend is not readmitted by a stray
// late response.
func (b *backend) recordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
}

// recordFailure notes a connect-level failure (probe or traffic) and
// reports whether this one crossed the eject threshold. The caller owns
// the metrics/log side effects; the state flip happens here so traffic
// and probes share one threshold.
func (b *backend) recordFailure(threshold int, now time.Time) (ejected bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.state == stHealthy || b.state == stDrained {
		if b.consecFails >= threshold {
			b.state = stEjected
			b.ejectedAt = now
			return true
		}
	} else if b.state == stHalfOpen {
		// The trial probe failed: back to ejection, cooldown restarts.
		b.state = stEjected
		b.ejectedAt = now
	}
	return false
}

// health runs the router's active prober: every ProbeInterval each
// backend is checked against its state — readiness (GET /v1/readyz) for
// routable-or-drained backends, a liveness trial for ejected ones whose
// cooldown expired. One goroutine probes all backends; probes are cheap
// (a GET against a local JSON endpoint) and serializing them keeps the
// state machine free of probe-vs-probe races.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-tick.C:
		}
		for _, b := range rt.fleet.Load().backends {
			rt.probe(b)
		}
	}
}

// probeVerdict is what one active probe learned.
type probeVerdict int

const (
	probeReady    probeVerdict = iota // 200 from /v1/readyz
	probeNotReady                     // live but not ready (drain, watermark)
	probeDown                         // connect failure / timeout / 5xx liveness
)

// checkReadyz performs one readiness probe against b.
func (rt *Router) checkReadyz(b *backend) probeVerdict {
	req, err := http.NewRequest(http.MethodGet, b.url+"/v1/readyz", nil)
	if err != nil {
		return probeDown
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return probeDown
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return probeReady
	case http.StatusServiceUnavailable:
		// Distinguish "alive but draining/at watermark" from "the node's
		// HTTP stack is up but the service is gone": a well-formed
		// readyz body means alive.
		var rz struct {
			Ready  bool   `json:"ready"`
			Reason string `json:"reason"`
		}
		if json.NewDecoder(resp.Body).Decode(&rz) == nil && rz.Reason == "no live workers" {
			return probeDown
		}
		return probeNotReady
	default:
		return probeDown
	}
}

// probe advances one backend's state machine by one active check.
func (rt *Router) probe(b *backend) {
	now := time.Now()

	b.mu.Lock()
	state := b.state
	switch state {
	case stEjected:
		if now.Sub(b.ejectedAt) < rt.cfg.ReadmitAfter {
			b.mu.Unlock()
			return
		}
		// Cooldown served. The flap breaker mirrors the supervisor's
		// restart-budget breaker: at most ReadmitBudget readmissions per
		// ReadmitWindow; past it the backend is held ejected until the
		// window slides — a flapping node must not be fed live traffic
		// on every brief recovery.
		cut := now.Add(-rt.cfg.ReadmitWindow)
		live := b.readmits[:0]
		for _, t := range b.readmits {
			if t.After(cut) {
				live = append(live, t)
			}
		}
		b.readmits = live
		if len(b.readmits) >= rt.cfg.ReadmitBudget {
			b.ejectedAt = now // re-arm the cooldown; check again next window
			b.mu.Unlock()
			rt.metrics.breakerHolds.Inc(b.slot)
			return
		}
		b.state = stHalfOpen
	case stHalfOpen:
		// A previous trial is still deciding this tick; fall through and
		// try again.
	}
	b.mu.Unlock()

	verdict := rt.checkReadyz(b)

	// The state flip happens under b.mu; the log line is emitted after
	// release. logEvent must never run with b.mu held — it snapshots no
	// state of its own, and the mutex is not reentrant.
	var event string
	b.mu.Lock()
	switch b.state {
	case stHealthy, stDrained:
		switch verdict {
		case probeReady:
			b.state = stHealthy
			b.consecFails = 0
		case probeNotReady:
			if b.state != stDrained {
				event = "backend drained"
			}
			b.state = stDrained
			b.consecFails = 0
		case probeDown:
			b.consecFails++
			if b.consecFails >= rt.cfg.FailThreshold {
				b.state = stEjected
				b.ejectedAt = now
				rt.metrics.ejections.Inc(b.slot)
				event = "backend ejected"
			}
		}
	case stHalfOpen:
		if verdict == probeReady {
			b.state = stHealthy
			b.consecFails = 0
			b.readmits = append(b.readmits, now)
			rt.metrics.readmits.Inc(b.slot)
			event = "backend readmitted"
		} else {
			b.state = stEjected
			b.ejectedAt = now
		}
	}
	st, fails := b.state, b.consecFails
	b.mu.Unlock()
	if event != "" {
		rt.logEvent(event, b.url, st, fails)
	}
}

// backendHealth is one backend's entry in the router health report.
type backendHealth struct {
	URL         string `json:"url"`
	State       string `json:"state"`
	ConsecFails int    `json:"consecFails,omitempty"`
}

// healthReport summarizes the fleet for /v1/healthz and /v1/readyz.
func (rt *Router) healthReport() (ok bool, report []backendHealth) {
	backends := rt.fleet.Load().backends
	report = make([]backendHealth, len(backends))
	for i, b := range backends {
		st, fails := b.currentState()
		report[i] = backendHealth{URL: b.url, State: st.String(), ConsecFails: fails}
		if st == stHealthy {
			ok = true
		}
	}
	return ok, report
}

// logEvent emits one structured health-event log line. The state is
// passed in as a snapshot: callers may (and do) decide to log while
// holding a backend's mutex, so logEvent must not lock it again.
func (rt *Router) logEvent(event, url string, st backendState, fails int) {
	if rt.logw == nil {
		return
	}
	line := fmt.Sprintf(`{"ts":%q,"event":%q,"backend":%q,"state":%q,"consecFails":%d}`,
		time.Now().UTC().Format(time.RFC3339Nano), event, url, st.String(), fails)
	rt.logMu.Lock()
	fmt.Fprintln(rt.logw, line)
	rt.logMu.Unlock()
}
