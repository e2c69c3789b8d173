package route

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/interp"
	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// ---- helpers -------------------------------------------------------------

// testLimits keeps test jobs small and fast.
var testLimits = interp.Limits{
	MaxSteps:       5_000_000,
	MaxHeapBytes:   64 << 20,
	Deadline:       2 * time.Second,
	MaxOutputBytes: 1 << 20,
}

// newServeBackend starts a real in-process pyserve backend.
func newServeBackend(t *testing.T, workers int) (*supervise.Sched, *httptest.Server) {
	t.Helper()
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{
		Workers:       workers,
		Metrics:       supervise.NewMetrics(reg),
		DefaultLimits: testLimits,
	})
	ts := httptest.NewServer(serve.NewWithOptions(pool, reg, serve.Options{DrainTimeout: time.Second}).Mux())
	t.Cleanup(func() { ts.Close(); pool.Close() })
	return pool, ts
}

// newRouter builds and starts a Router over cfg plus an HTTP front for
// it, with cleanup registered.
func newRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.Logw == nil {
		// Always exercise the health-event logging path: it once
		// self-deadlocked (logEvent re-locking a backend mutex its caller
		// held) and only runs when a log writer is configured.
		cfg.Logw = io.Discard
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	front := httptest.NewServer(rt.Mux())
	t.Cleanup(func() { front.Close(); rt.Close() })
	return rt, front
}

// postRun posts one program through url and decodes the response.
func postRun(t *testing.T, url, src string, hdr map[string]string) (*http.Response, map[string]interface{}) {
	t.Helper()
	body, _ := json.Marshal(api.RunRequestV1{Src: src})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response (status %d): %v", resp.StatusCode, err)
	}
	return resp, out
}

// errCode digs the machine-readable code out of an error envelope.
func errCode(body map[string]interface{}) string {
	env, _ := body["error"].(map[string]interface{})
	code, _ := env["code"].(string)
	return code
}

// deadURL returns a URL nothing is listening on.
func deadURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	u := ts.URL
	ts.Close()
	return u
}

// stubRun writes a stub 200 /v1/run body with the X-Pyserve-Digest
// stamp the router requires on every 2xx run response.
func stubRun(w http.ResponseWriter, body string) {
	b := []byte(body + "\n")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.HeaderResultDigest, api.Digest(b))
	_, _ = w.Write(b)
}

// srcOwnedBy finds a program source whose ring owner is backend idx.
func srcOwnedBy(t *testing.T, rt *Router, idx int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		src := fmt.Sprintf("print(%d)\n", i)
		if rt.fleet.Load().ring.owner(ContentHash(src)) == idx {
			return src
		}
	}
	t.Fatal("no source found owned by backend")
	return ""
}

// quietProbes is a probe interval long enough that the prober never
// fires during a unit test (traffic-driven behavior only).
const quietProbes = time.Hour

// ---- ring ----------------------------------------------------------------

func TestContentHashStable(t *testing.T) {
	a := ContentHash("print(1)\n")
	if a != ContentHash("print(1)\n") {
		t.Fatal("same source hashed differently")
	}
	if a == ContentHash("print(2)\n") {
		t.Fatal("distinct sources collided (astronomically unlikely)")
	}
}

func TestRingDistribution(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := buildRing(names)
	counts := make([]int, len(names))
	const keys = 30000
	for i := 0; i < keys; i++ {
		counts[r.owner(ContentHash(fmt.Sprintf("key-%d", i)))]++
	}
	for i, c := range counts {
		frac := float64(c) / keys
		if frac < 0.15 || frac > 0.55 {
			t.Errorf("backend %d owns %.1f%% of keys; want a roughly even split", i, 100*frac)
		}
	}
}

func TestRingStabilityUnderEjection(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := buildRing(names)
	// Keys not owned by backend 1 must keep their owner when backend 1
	// is skipped (ejection only remaps the ejected node's keys).
	moved := 0
	for i := 0; i < 5000; i++ {
		key := ContentHash(fmt.Sprintf("key-%d", i))
		owner := r.owner(key)
		var surviving int
		r.walk(key, func(idx int) bool {
			if idx == 1 {
				return true // skip the "ejected" backend
			}
			surviving = idx
			return false
		})
		if owner != 1 && surviving != owner {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the ejected backend changed owner", moved)
	}
}

func TestRingWalkDistinct(t *testing.T) {
	names := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := buildRing(names)
	var order []int
	r.walk(ContentHash("x"), func(idx int) bool { order = append(order, idx); return true })
	if len(order) != len(names) {
		t.Fatalf("walk yielded %d backends, want %d distinct", len(order), len(names))
	}
	seen := map[int]bool{}
	for _, i := range order {
		if seen[i] {
			t.Fatalf("walk yielded backend %d twice", i)
		}
		seen[i] = true
	}
}

// ---- happy path ----------------------------------------------------------

func TestRouterHappyPath(t *testing.T) {
	_, b1 := newServeBackend(t, 2)
	_, b2 := newServeBackend(t, 2)
	_, b3 := newServeBackend(t, 2)
	reg := telemetry.NewRegistry()
	backends := []string{b1.URL, b2.URL, b3.URL}
	rt, front := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: quietProbes,
		Metrics:       NewMetrics(reg, backends),
	})

	resp, body := postRun(t, front.URL, "print(6*7)\n", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200; body %v", resp.StatusCode, body)
	}
	if got := body["stdout"]; got != "42\n" {
		t.Fatalf("stdout %q, want %q", got, "42\n")
	}
	if resp.Header.Get("X-Pyroute-Backend") == "" {
		t.Error("missing X-Pyroute-Backend header")
	}
	if resp.Header.Get(api.HeaderRequestID) == "" {
		t.Error("missing X-Request-Id header")
	}
	if resp.Header.Get("X-Pyroute-Attempts") != "1" {
		t.Errorf("attempts header %q, want 1", resp.Header.Get("X-Pyroute-Attempts"))
	}
	if rt.metrics.requests.Value(outOK) != 1 {
		t.Errorf("requests{ok} = %d, want 1", rt.metrics.requests.Value(outOK))
	}
}

func TestRouterPinsContentToOneBackend(t *testing.T) {
	_, b1 := newServeBackend(t, 2)
	_, b2 := newServeBackend(t, 2)
	_, front := newRouter(t, Config{
		Backends:      []string{b1.URL, b2.URL},
		ProbeInterval: quietProbes,
	})
	var first string
	for i := 0; i < 5; i++ {
		resp, _ := postRun(t, front.URL, "print(1+1)\n", nil)
		got := resp.Header.Get("X-Pyroute-Backend")
		if first == "" {
			first = got
		} else if got != first {
			t.Fatalf("same program routed to %s then %s", first, got)
		}
	}
}

func TestRouterValidation(t *testing.T) {
	_, b1 := newServeBackend(t, 1)
	_, front := newRouter(t, Config{Backends: []string{b1.URL}, ProbeInterval: quietProbes})

	resp, err := http.Post(front.URL+"/v1/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	resp2, body := postRun(t, front.URL, "", nil)
	if resp2.StatusCode != http.StatusBadRequest || errCode(body) != api.CodeMissingProgram {
		t.Errorf("missing program: status %d code %q, want 400 %q", resp2.StatusCode, errCode(body), api.CodeMissingProgram)
	}
}

// ---- retries -------------------------------------------------------------

func TestRetryOnConnectError(t *testing.T) {
	_, live := newServeBackend(t, 2)
	dead := deadURL(t)
	reg := telemetry.NewRegistry()
	backends := []string{dead, live.URL}
	rt, front := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: quietProbes,
		FailThreshold: 100, // keep the dead node routable: force the retry path
		Metrics:       NewMetrics(reg, backends),
	})

	deadFirst := srcOwnedBy(t, rt, 0)
	resp, body := postRun(t, front.URL, deadFirst, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via retry; body %v", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Pyroute-Attempts") != "2" {
		t.Errorf("attempts %q, want 2", resp.Header.Get("X-Pyroute-Attempts"))
	}
	if rt.metrics.retries.Value() != 1 {
		t.Errorf("retries = %d, want 1", rt.metrics.retries.Value())
	}
}

func TestRetryTagsRequestID(t *testing.T) {
	var gotID atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		gotID.Store(r.Header.Get(api.HeaderRequestID))
		stubRun(w, `{"apiVersion":"v1","exitClass":"ok","stdout":""}`)
	})
	live := httptest.NewServer(mux)
	t.Cleanup(live.Close)
	dead := deadURL(t)

	rt, front := newRouter(t, Config{
		Backends:      []string{dead, live.URL},
		ProbeInterval: quietProbes,
		FailThreshold: 100,
	})
	deadFirst := srcOwnedBy(t, rt, 0)
	resp, _ := postRun(t, front.URL, deadFirst, map[string]string{api.HeaderRequestID: "edge-42"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if id, _ := gotID.Load().(string); id != "edge-42.r2" {
		t.Errorf("backend saw request id %q, want %q", id, "edge-42.r2")
	}
	if resp.Header.Get(api.HeaderRequestID) != "edge-42" {
		t.Errorf("client got id %q, want the original %q", resp.Header.Get(api.HeaderRequestID), "edge-42")
	}
}

func TestShedReroutesToNextBackend(t *testing.T) {
	var shedHits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		shedHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"apiVersion":"v1","exitClass":"shed","retryAfterMs":1000}`)
	})
	shedding := httptest.NewServer(mux)
	t.Cleanup(shedding.Close)
	_, live := newServeBackend(t, 2)

	rt, front := newRouter(t, Config{
		Backends:      []string{shedding.URL, live.URL},
		ProbeInterval: quietProbes,
	})
	shedFirst := srcOwnedBy(t, rt, 0)
	start := time.Now()
	resp, body := postRun(t, front.URL, shedFirst, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via re-route; body %v", resp.StatusCode, body)
	}
	if shedHits.Load() == 0 {
		t.Fatal("shedding backend was never tried first")
	}
	// A shed re-routes immediately — the 1s Retry-After hint must not
	// park the request when another backend is available.
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("re-route took %v; shed failover should not sleep on the hint", d)
	}
}

func TestShedPassesThroughWhenAlone(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"apiVersion":"v1","exitClass":"shed","retryAfterMs":7000}`)
	})
	shedding := httptest.NewServer(mux)
	t.Cleanup(shedding.Close)

	_, front := newRouter(t, Config{
		Backends:      []string{shedding.URL},
		ProbeInterval: quietProbes,
	})
	resp, body := postRun(t, front.URL, "print(1)\n", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 pass-through", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "7" {
		t.Errorf("Retry-After %q, want the backend's hint 7", resp.Header.Get("Retry-After"))
	}
	if body["retryAfterMs"] == nil {
		t.Error("backend shed body not passed through")
	}
}

func TestNoRetryWhenJobMayHaveExecuted(t *testing.T) {
	var otherHits atomic.Int64
	// A backend that accepts the request, then kills the connection
	// mid-response: the job may have executed, so no retry is allowed.
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("hijack unsupported")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	})
	broken := httptest.NewServer(mux)
	t.Cleanup(broken.Close)
	other := http.NewServeMux()
	other.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		otherHits.Add(1)
		stubRun(w, `{}`)
	})
	spare := httptest.NewServer(other)
	t.Cleanup(spare.Close)

	reg := telemetry.NewRegistry()
	backends := []string{broken.URL, spare.URL}
	rt, front := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: quietProbes,
		Metrics:       NewMetrics(reg, backends),
	})
	brokenFirst := srcOwnedBy(t, rt, 0)
	resp, body := postRun(t, front.URL, brokenFirst, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502; body %v", resp.StatusCode, body)
	}
	if errCode(body) != api.CodeUpstreamError {
		t.Errorf("code %q, want %q", errCode(body), api.CodeUpstreamError)
	}
	if otherHits.Load() != 0 {
		t.Fatal("request was re-routed although the job may have executed")
	}
	if rt.metrics.retries.Value() != 0 {
		t.Errorf("retries = %d, want 0", rt.metrics.retries.Value())
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	_, live := newServeBackend(t, 2)
	dead := deadURL(t)
	reg := telemetry.NewRegistry()
	backends := []string{dead, live.URL}
	rt, front := newRouter(t, Config{
		Backends:         backends,
		ProbeInterval:    quietProbes,
		FailThreshold:    1000,
		RetryBudgetRatio: 0.001, // essentially no refill
		RetryBudgetBurst: 1,     // one retry, then dry
		Metrics:          NewMetrics(reg, backends),
	})
	deadFirst := srcOwnedBy(t, rt, 0)

	sawBudget := false
	okCount := 0
	for i := 0; i < 5; i++ {
		resp, body := postRun(t, front.URL, deadFirst, nil)
		switch resp.StatusCode {
		case http.StatusOK:
			okCount++
		case http.StatusServiceUnavailable:
			if errCode(body) == api.CodeRetryBudget {
				sawBudget = true
				if resp.Header.Get("Retry-After") == "" {
					t.Error("budget rejection missing Retry-After hint")
				}
			}
		default:
			t.Fatalf("unexpected status %d: %v", resp.StatusCode, body)
		}
	}
	if okCount == 0 {
		t.Error("the budgeted retry never succeeded")
	}
	if !sawBudget {
		t.Error("never saw a retry_budget_exhausted rejection after the bucket drained")
	}
	if rt.metrics.retryBudgetExhausted.Value() == 0 {
		t.Error("retry_budget_exhausted counter not incremented")
	}
}

// ---- health state machine ------------------------------------------------

// flippableBackend is a fake pyserve whose readiness the test controls.
type flippableBackend struct {
	ts *httptest.Server
	// mode: "ready", "draining", "down" (readyz reports no live workers,
	// run refuses).
	mode atomic.Value
	runs atomic.Int64
}

func newFlippable(t *testing.T) *flippableBackend {
	f := &flippableBackend{}
	f.mode.Store("ready")
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch f.mode.Load().(string) {
		case "ready":
			fmt.Fprintln(w, `{"ready":true}`)
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"ready":false,"reason":"draining"}`)
		default:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"ready":false,"reason":"no live workers"}`)
		}
	})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		f.runs.Add(1)
		stubRun(w, `{"apiVersion":"v1","exitClass":"ok","stdout":"flip\n"}`)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// waitState polls until backend b of rt reaches state want.
func waitState(t *testing.T, rt *Router, idx int, want backendState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := rt.fleet.Load().backends[idx].currentState(); st == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := rt.fleet.Load().backends[idx].currentState()
	t.Fatalf("backend %d stuck in %v, want %v", idx, st, want)
}

func TestProbeEjectsAndReadmits(t *testing.T) {
	f := newFlippable(t)
	_, spare := newServeBackend(t, 1)
	reg := telemetry.NewRegistry()
	backends := []string{f.ts.URL, spare.URL}
	rt, _ := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		FailThreshold: 2,
		ReadmitAfter:  30 * time.Millisecond,
		Metrics:       NewMetrics(reg, backends),
	})

	f.mode.Store("down")
	waitState(t, rt, 0, stEjected)
	if rt.metrics.ejections.Value(0) == 0 {
		t.Error("ejections counter not incremented")
	}

	f.mode.Store("ready")
	waitState(t, rt, 0, stHealthy)
	if rt.metrics.readmits.Value(0) == 0 {
		t.Error("readmits counter not incremented")
	}
}

func TestDrainingBypassedNotEjected(t *testing.T) {
	f := newFlippable(t)
	_, spare := newServeBackend(t, 1)
	reg := telemetry.NewRegistry()
	backends := []string{f.ts.URL, spare.URL}
	rt, front := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 2,
		Metrics:       NewMetrics(reg, backends),
	})

	f.mode.Store("draining")
	waitState(t, rt, 0, stDrained)
	if rt.metrics.ejections.Value(0) != 0 {
		t.Fatal("draining backend was ejected; drain must bypass, not eject")
	}

	// Traffic owned by the draining node flows to the spare.
	drainFirst := srcOwnedBy(t, rt, 0)
	resp, _ := postRun(t, front.URL, drainFirst, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via the spare", resp.StatusCode)
	}
	if f.runs.Load() != 0 {
		t.Error("draining backend received traffic")
	}

	// The instant readiness returns, so does traffic — no cooldown.
	f.mode.Store("ready")
	waitState(t, rt, 0, stHealthy)
}

func TestFlapBreakerHoldsFlappingBackend(t *testing.T) {
	f := newFlippable(t)
	_, spare := newServeBackend(t, 1)
	reg := telemetry.NewRegistry()
	backends := []string{f.ts.URL, spare.URL}
	rt, _ := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: 5 * time.Millisecond,
		FailThreshold: 1,
		ReadmitAfter:  10 * time.Millisecond,
		ReadmitBudget: 2,
		ReadmitWindow: time.Hour, // the window never slides during the test
		Metrics:       NewMetrics(reg, backends),
	})

	// Flap: down -> eject, up -> readmit, twice (exhausting the budget).
	for i := 0; i < 2; i++ {
		f.mode.Store("down")
		waitState(t, rt, 0, stEjected)
		f.mode.Store("ready")
		waitState(t, rt, 0, stHealthy)
	}
	// Third ejection: the node recovers, but the breaker must hold it.
	f.mode.Store("down")
	waitState(t, rt, 0, stEjected)
	f.mode.Store("ready")

	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && rt.metrics.breakerHolds.Value(0) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if rt.metrics.breakerHolds.Value(0) == 0 {
		t.Fatal("flap breaker never held the flapping backend")
	}
	if st, _ := rt.fleet.Load().backends[0].currentState(); st != stEjected {
		t.Fatalf("flapping backend is %v, want held ejected", st)
	}
	if got := rt.metrics.readmits.Value(0); got != 2 {
		t.Errorf("readmits = %d, want exactly the budget of 2", got)
	}
}

// ---- hedging -------------------------------------------------------------

func TestHedgingDuplicatesSlowRequests(t *testing.T) {
	slow := http.NewServeMux()
	slow.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		stubRun(w, `{"apiVersion":"v1","exitClass":"ok","stdout":"slow\n"}`)
	})
	slowTS := httptest.NewServer(slow)
	t.Cleanup(slowTS.Close)
	_, fast := newServeBackend(t, 2)

	reg := telemetry.NewRegistry()
	backends := []string{slowTS.URL, fast.URL}
	rt, front := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: quietProbes,
		Hedge:         true,
		HedgeMinDelay: 10 * time.Millisecond,
		Metrics:       NewMetrics(reg, backends),
	})
	slowFirst := srcOwnedBy(t, rt, 0)

	start := time.Now()
	resp, body := postRun(t, front.URL, slowFirst, nil)
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200; body %v", resp.StatusCode, body)
	}
	if took > time.Second {
		t.Errorf("hedged request took %v; the fast backend should have answered", took)
	}
	if rt.metrics.hedges.Value() == 0 {
		t.Error("hedges counter not incremented")
	}
	if rt.metrics.hedgeWins.Value() == 0 {
		t.Error("hedge_wins counter not incremented")
	}
}

// ---- degraded modes ------------------------------------------------------

// TestAllDrainedPassesThrough: when every backend is drained (alive but
// not ready — watermark backpressure or a fleet-wide drain), the router
// must still pass requests through and let the backend's own admission
// control answer, not synthesize no_backends for a fleet that is merely
// saturated. Ejected backends never get this fallback (see
// TestNoBackendsRoutable).
func TestAllDrainedPassesThrough(t *testing.T) {
	f := newFlippable(t)
	rt, front := newRouter(t, Config{
		Backends:      []string{f.ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 2,
	})
	f.mode.Store("draining")
	waitState(t, rt, 0, stDrained)

	resp, body := postRun(t, front.URL, "print(1)\n", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 passed through the drained backend (body %v)", resp.StatusCode, body)
	}
	if got := body["stdout"]; got != "flip\n" {
		t.Errorf("stdout %q, want the drained backend's own answer", got)
	}
	if f.runs.Load() == 0 {
		t.Error("drained backend never saw the request")
	}
}

func TestNoBackendsRoutable(t *testing.T) {
	f := newFlippable(t)
	rt, front := newRouter(t, Config{
		Backends:      []string{f.ts.URL},
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 1,
	})
	f.mode.Store("down")
	waitState(t, rt, 0, stEjected)

	resp, body := postRun(t, front.URL, "print(1)\n", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if errCode(body) != api.CodeNoBackends {
		t.Errorf("code %q, want %q", errCode(body), api.CodeNoBackends)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no_backends rejection missing Retry-After")
	}

	hz, err := http.Get(front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz status %d with zero routable backends, want 503", hz.StatusCode)
	}
}

func TestSingleBackendPassThrough(t *testing.T) {
	_, b := newServeBackend(t, 2)
	_, front := newRouter(t, Config{
		Backends:      []string{b.URL},
		ProbeInterval: quietProbes,
		Hedge:         true, // must be ignored with one backend
	})
	resp, body := postRun(t, front.URL, "print(2**10)\n", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200; body %v", resp.StatusCode, body)
	}
	if got := body["stdout"]; got != "1024\n" {
		t.Fatalf("stdout %q, want %q", got, "1024\n")
	}
}

// ---- metrics aggregation -------------------------------------------------

func TestMetricsAggregation(t *testing.T) {
	static := func(text string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, text)
		})
		mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, `{"ready":true}`)
		})
		return httptest.NewServer(mux)
	}
	b1 := static("# HELP jobs_total Jobs.\n# TYPE jobs_total counter\njobs_total{class=\"ok\"} 3\n")
	b2 := static("# HELP jobs_total Jobs.\n# TYPE jobs_total counter\njobs_total{class=\"ok\"} 4\n")
	t.Cleanup(func() { b1.Close(); b2.Close() })

	reg := telemetry.NewRegistry()
	backends := []string{b1.URL, b2.URL}
	_, front := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: quietProbes,
		Metrics:       NewMetrics(reg, backends),
	})

	resp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	if !strings.Contains(text, `jobs_total{class="ok"} 7`) {
		t.Errorf("backend series not summed across the fleet:\n%s", text)
	}
	if !strings.Contains(text, "pyroute_requests_total") {
		t.Error("router's own families missing from the aggregated scrape")
	}
	if !strings.Contains(text, "pyroute_backend_up") {
		t.Error("pyroute_backend_up gauge missing")
	}
	if !strings.Contains(text, "# pyroute: aggregated 2 backends, 0 unreachable") {
		t.Errorf("aggregation trailer missing or wrong:\n%s", text)
	}
}

// ---- kill smoke ----------------------------------------------------------

// TestThreeBackendKillSmoke is the CI smoke: three real backends, one is
// killed mid-run, traffic keeps answering 200 with correct output.
func TestThreeBackendKillSmoke(t *testing.T) {
	_, b1 := newServeBackend(t, 2)
	_, b2 := newServeBackend(t, 2)
	_, b3 := newServeBackend(t, 2)
	reg := telemetry.NewRegistry()
	backends := []string{b1.URL, b2.URL, b3.URL}
	rt, front := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: 20 * time.Millisecond,
		FailThreshold: 2,
		ReadmitAfter:  time.Hour, // stays dead for the whole test
		Metrics:       NewMetrics(reg, backends),
	})

	run := func(i int) {
		src := fmt.Sprintf("print(%d * 2)\n", i)
		want := fmt.Sprintf("%d\n", i*2)
		resp, body := postRun(t, front.URL, src, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d; body %v", i, resp.StatusCode, body)
		}
		if got := body["stdout"]; got != want {
			t.Fatalf("request %d: stdout %q, want %q (wrong answer after kill)", i, got, want)
		}
	}

	for i := 0; i < 20; i++ {
		run(i)
	}
	b2.CloseClientConnections()
	b2.Close() // kill one backend for good
	for i := 20; i < 60; i++ {
		run(i)
	}
	waitState(t, rt, 1, stEjected)
	for i := 60; i < 80; i++ {
		run(i)
	}
	if rt.metrics.requests.Value(outOK) != 80 {
		t.Errorf("requests{ok} = %d, want all 80", rt.metrics.requests.Value(outOK))
	}
}

// TestKeyedRequestNeverHedges is the exactly-once regression test for
// the hedge x idempotency interaction: the dedup cache is per-replica,
// so a hedge — which races the same body on a SECOND replica — can
// double-execute a keyed request fleet-wide (the old behavior). A keyed
// request whose primary is slow but executing must wait for the
// primary, not hedge: exactly one backend may ever see the body.
func TestKeyedRequestNeverHedges(t *testing.T) {
	var primaryRuns, altRuns atomic.Int64
	mkCounting := func(runs *atomic.Int64, delay time.Duration) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
			runs.Add(1)
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
			stubRun(w, `{"apiVersion":"v1","exitClass":"ok","stdout":"counted\n","executions":1}`)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	// Primary: slow enough that the hedge timer (10ms min delay) fires
	// long before it answers. Alt: instant, so an (incorrect) hedge
	// would win the race and be visible both in altRuns and the winner.
	primary := mkCounting(&primaryRuns, 400*time.Millisecond)
	alt := mkCounting(&altRuns, 0)

	reg := telemetry.NewRegistry()
	backends := []string{primary.URL, alt.URL}
	rt, front := newRouter(t, Config{
		Backends:      backends,
		ProbeInterval: quietProbes,
		Hedge:         true,
		HedgeMinDelay: 10 * time.Millisecond,
		Metrics:       NewMetrics(reg, backends),
	})
	src := srcOwnedBy(t, rt, 0)

	body, _ := json.Marshal(api.RunRequestV1{Src: src, IdempotencyKey: "exactly-once-1"})
	req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %v", resp.StatusCode, out)
	}
	if got := primaryRuns.Load(); got != 1 {
		t.Fatalf("primary executions = %d, want 1", got)
	}
	if got := altRuns.Load(); got != 0 {
		t.Fatalf("keyed request reached %d backends beyond its owner: hedging must be suppressed for keyed requests", got+1)
	}
	if rt.metrics.hedges.Value() != 0 {
		t.Fatal("hedge launched for a keyed request")
	}

	// Control: an unkeyed request in the same fleet still hedges (the
	// tail-latency machinery stays intact for the dedup-free traffic).
	resp2, _ := postRun(t, front.URL, src, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("unkeyed control status %d", resp2.StatusCode)
	}
	if rt.metrics.hedges.Value() == 0 {
		t.Fatal("unkeyed request no longer hedges")
	}
}
