package route

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// ---- helpers -------------------------------------------------------------

// stubBackend starts a stub pyserve that answers /v1/run with a fixed
// 200 body (digest-stamped) and /v1/readyz with ready:true.
func stubBackend(t *testing.T, stdout string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		stubRun(w, fmt.Sprintf(`{"apiVersion":"v1","exitClass":"ok","stdout":%q}`, stdout))
	})
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"ready":true}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// postRunKey posts one program with an idempotency key through url.
func postRunKey(t *testing.T, url, src, key string) (*http.Response, map[string]interface{}) {
	t.Helper()
	body, _ := json.Marshal(api.RunRequestV1{Src: src, IdempotencyKey: key})
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
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

// adminGet fetches and decodes GET /v1/admin/backends.
func adminGet(t *testing.T, front string) adminBackendsGet {
	t.Helper()
	resp, err := http.Get(front + "/v1/admin/backends")
	if err != nil {
		t.Fatalf("GET admin: %v", err)
	}
	defer resp.Body.Close()
	var rep adminBackendsGet
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode admin reply: %v", err)
	}
	return rep
}

// ---- Retry-After parsing (RFC 9110 both forms) ---------------------------

func TestRetryAfterParse(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"3", 3 * time.Second, true},
		{" 10 ", 10 * time.Second, true},
		{"0", 0, true},
		{"-1", 0, false},
		{now.Add(5 * time.Second).Format(http.TimeFormat), 5 * time.Second, true},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true},  // past date: retry now
		{"Friday, 07-Aug-26 12:00:05 GMT", 5 * time.Second, true}, // RFC 850 form
		{"garbage", 0, false},
		{"", 0, false},
		{"1.5", 0, false},
	}
	for _, c := range cases {
		got, ok := parseRetryAfter(c.in, now)
		if ok != c.ok || got != c.want {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

// ---- hot reload ----------------------------------------------------------

func TestReconfigureAddRemove(t *testing.T) {
	a, b, c := stubBackend(t, "a\n"), stubBackend(t, "b\n"), stubBackend(t, "c\n")
	rt, front := newRouter(t, Config{Backends: []string{a.URL, b.URL}, ProbeInterval: quietProbes})

	added, removed, err := rt.Reconfigure([]string{a.URL, c.URL})
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if len(added) != 1 || added[0] != c.URL {
		t.Fatalf("added = %v, want [%s]", added, c.URL)
	}
	if len(removed) != 1 || removed[0] != b.URL {
		t.Fatalf("removed = %v, want [%s]", removed, b.URL)
	}

	rep := adminGet(t, front.URL)
	if len(rep.Backends) != 2 || rep.Backends[0].URL != a.URL || rep.Backends[1].URL != c.URL {
		t.Fatalf("admin backends = %+v, want [%s %s]", rep.Backends, a.URL, c.URL)
	}

	// Traffic still flows, and only to the new fleet.
	for i := 0; i < 20; i++ {
		resp, body := postRun(t, front.URL, fmt.Sprintf("print(%d)\n", i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-reload request %d: status %d body %v", i, resp.StatusCode, body)
		}
		if be := resp.Header.Get("X-Pyroute-Backend"); be == b.URL {
			t.Fatalf("request %d routed to removed backend %s", i, be)
		}
	}
}

func TestReconfigureAdminPut(t *testing.T) {
	a, b := stubBackend(t, "a\n"), stubBackend(t, "b\n")
	_, front := newRouter(t, Config{Backends: []string{a.URL}, ProbeInterval: quietProbes})

	put := func(body string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodPut, front.URL+"/v1/admin/backends", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT admin: %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, rb := put(fmt.Sprintf(`{"backends":[%q,%q]}`, a.URL, b.URL+"/"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT: status %d body %s", resp.StatusCode, rb)
	}
	var rep adminBackendsPutReply
	if err := json.Unmarshal(rb, &rep); err != nil {
		t.Fatalf("decode PUT reply: %v", err)
	}
	// The trailing slash is normalized away before Reconfigure.
	if rep.Backends != 2 || len(rep.Added) != 1 || rep.Added[0] != b.URL {
		t.Fatalf("PUT reply = %+v, want 2 backends, added [%s]", rep, b.URL)
	}

	// Invalid sets are rejected without touching the fleet.
	for _, bad := range []string{
		`{"backends":[]}`,
		`{"backends":["ftp://nope"]}`,
		fmt.Sprintf(`{"backends":[%q,%q]}`, a.URL, a.URL),
		`not json`,
	} {
		resp, rb := put(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT %s: status %d body %s, want 400", bad, resp.StatusCode, rb)
		}
	}
	if got := adminGet(t, front.URL); len(got.Backends) != 2 {
		t.Fatalf("fleet changed by rejected PUT: %+v", got.Backends)
	}
}

// TestReconfigureMinimalKeyMovement: removing one node must only remap
// the keys that hashed to it — every key owned by a kept node keeps its
// owner, because the ring hashes backend names, not fleet indexes.
func TestReconfigureMinimalKeyMovement(t *testing.T) {
	urls := []string{"http://10.0.0.1:9001", "http://10.0.0.2:9001", "http://10.0.0.3:9001"}
	rt, _ := newRouter(t, Config{Backends: urls, ProbeInterval: quietProbes})

	ownerURL := func(key uint64) string {
		f := rt.fleet.Load()
		return f.backends[f.ring.owner(key)].url
	}
	const keys = 500
	before := make([]string, keys)
	for i := range before {
		before[i] = ownerURL(ContentHash(fmt.Sprintf("print(%d)\n", i)))
	}

	if _, _, err := rt.Reconfigure([]string{urls[0], urls[2]}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	moved := 0
	for i := range before {
		after := ownerURL(ContentHash(fmt.Sprintf("print(%d)\n", i)))
		if before[i] == urls[1] {
			moved++
			continue // the removed node's keys must move somewhere
		}
		if after != before[i] {
			t.Fatalf("key %d moved %s -> %s though its owner was kept", i, before[i], after)
		}
	}
	if moved == 0 {
		t.Fatal("no key was owned by the removed backend; sample too small")
	}

	// Adding the node back restores its old keyspace exactly.
	if _, _, err := rt.Reconfigure(urls); err != nil {
		t.Fatalf("Reconfigure (restore): %v", err)
	}
	for i := range before {
		if after := ownerURL(ContentHash(fmt.Sprintf("print(%d)\n", i))); after != before[i] {
			t.Fatalf("key %d not restored: %s != %s", i, after, before[i])
		}
	}
}

// TestReconfigureKeepsHealthState: a URL kept across a fleet swap keeps
// its *backend object, so ejection state survives the reconfiguration.
func TestReconfigureKeepsHealthState(t *testing.T) {
	urls := []string{"http://10.0.0.1:9001", "http://10.0.0.2:9001"}
	rt, _ := newRouter(t, Config{Backends: urls, ProbeInterval: quietProbes, FailThreshold: 1})

	b0 := rt.fleet.Load().backends[0]
	if !b0.recordFailure(1, time.Now()) {
		t.Fatal("recordFailure did not eject at threshold 1")
	}

	if _, _, err := rt.Reconfigure([]string{urls[0], urls[1], "http://10.0.0.3:9001"}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	nb0 := rt.fleet.Load().backends[0]
	if nb0 != b0 {
		t.Fatal("kept backend was rebuilt; health state would be lost")
	}
	if st, _ := nb0.currentState(); st != stEjected {
		t.Fatalf("kept backend state = %v, want ejected", st)
	}
}

// TestReconfigureDrainsInflight: a removed backend finishes its in-flight
// request, is reported as draining while it does, and is forgotten after.
func TestReconfigureDrainsInflight(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		stubRun(w, `{"apiVersion":"v1","exitClass":"ok","stdout":"slowpoke\n"}`)
	})
	blocker := httptest.NewServer(mux)
	t.Cleanup(blocker.Close)
	spare := stubBackend(t, "spare\n")

	rt, front := newRouter(t, Config{Backends: []string{blocker.URL}, ProbeInterval: quietProbes})
	old := rt.fleet.Load().backends[0]

	type runRes struct {
		status int
		body   map[string]interface{}
	}
	resCh := make(chan runRes, 1)
	go func() {
		body, _ := json.Marshal(api.RunRequestV1{Src: "print(1)\n"})
		resp, err := http.Post(front.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			resCh <- runRes{status: -1}
			return
		}
		defer resp.Body.Close()
		var out map[string]interface{}
		json.NewDecoder(resp.Body).Decode(&out)
		resCh <- runRes{status: resp.StatusCode, body: out}
	}()
	waitFor(t, "request in flight", func() bool { return old.inflight.Load() == 1 })

	if _, removed, err := rt.Reconfigure([]string{spare.URL}); err != nil || len(removed) != 1 {
		t.Fatalf("Reconfigure: removed=%v err=%v", removed, err)
	}
	rep := adminGet(t, front.URL)
	if len(rep.Draining) != 1 || rep.Draining[0].URL != blocker.URL || rep.Draining[0].Inflight != 1 {
		t.Fatalf("draining = %+v, want %s with 1 in flight", rep.Draining, blocker.URL)
	}

	// New traffic goes to the new fleet even while the old node drains.
	if resp, _ := postRun(t, front.URL, "print(2)\n", nil); resp.Header.Get("X-Pyroute-Backend") != spare.URL {
		t.Fatalf("new traffic hit %s, want %s", resp.Header.Get("X-Pyroute-Backend"), spare.URL)
	}

	close(release)
	got := <-resCh
	if got.status != http.StatusOK {
		t.Fatalf("in-flight request on removed backend: status %d body %v", got.status, got.body)
	}
	waitFor(t, "drain to finish", func() bool { return len(adminGet(t, front.URL).Draining) == 0 })
}

// TestReloadUnderLoad: requests flow through repeated fleet swaps with
// zero failed requests — reconfiguration is invisible to clients.
func TestReloadUnderLoad(t *testing.T) {
	_, a := newServeBackend(t, 2)
	_, b := newServeBackend(t, 2)
	_, c := newServeBackend(t, 2)
	rt, front := newRouter(t, Config{Backends: []string{a.URL, b.URL}, ProbeInterval: quietProbes})

	stop := make(chan struct{})
	reloads := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				reloads <- n
				return
			case <-time.After(5 * time.Millisecond):
			}
			var err error
			if n%2 == 0 {
				_, _, err = rt.Reconfigure([]string{a.URL, b.URL, c.URL})
			} else {
				_, _, err = rt.Reconfigure([]string{a.URL, b.URL})
			}
			if err != nil {
				t.Errorf("Reconfigure %d: %v", n, err)
				reloads <- n
				return
			}
			n++
		}
	}()

	const workers, perWorker = 4, 25
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				src := fmt.Sprintf("print(%d)\n", w*perWorker+i)
				body, _ := json.Marshal(api.RunRequestV1{Src: src})
				resp, err := http.Post(front.URL+"/v1/run", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	n := <-reloads
	if n == 0 {
		t.Fatal("no reconfiguration happened during the load run")
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d/%d requests failed across %d live reloads", f, workers*perWorker, n)
	}
}

// ---- idempotent replay & response integrity ------------------------------

// midflightBackend fails its first /v1/run mid-response (connection
// established, then killed — the unsafe failure mode) and serves
// normally afterwards.
func midflightBackend(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		stubRun(w, `{"apiVersion":"v1","exitClass":"ok","stdout":"revived\n"}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestMidflightNotRetriedWithoutKey: without an idempotency key a
// mid-flight failure must surface as upstream_error, never replay.
func TestMidflightNotRetriedWithoutKey(t *testing.T) {
	broken, hits := midflightBackend(t)
	spare := stubBackend(t, "spare\n")
	rt, front := newRouter(t, Config{
		Backends: []string{broken.URL, spare.URL}, ProbeInterval: quietProbes,
	})
	src := srcOwnedBy(t, rt, 0)

	resp, body := postRun(t, front.URL, src, nil)
	if resp.StatusCode != http.StatusBadGateway || errCode(body) != api.CodeUpstreamError {
		t.Fatalf("status %d code %q, want 502 %s", resp.StatusCode, errCode(body), api.CodeUpstreamError)
	}
	if hits.Load() != 1 {
		t.Fatalf("broken backend hit %d times, want exactly 1 (no replay)", hits.Load())
	}
}

// TestMidflightReplayedWithKey: an idempotency key authorizes replaying
// the mid-flight failure — same node first, where the backend's dedup
// cache would absorb a completed execution.
func TestMidflightReplayedWithKey(t *testing.T) {
	broken, hits := midflightBackend(t)
	spare := stubBackend(t, "spare\n")
	reg := telemetry.NewRegistry()
	urls := []string{broken.URL, spare.URL}
	rt, front := newRouter(t, Config{
		Backends: urls, ProbeInterval: quietProbes,
		BackoffBase: time.Millisecond, Metrics: NewMetrics(reg, urls),
	})
	src := srcOwnedBy(t, rt, 0)

	resp, body := postRunKey(t, front.URL, src, "job-7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %v, want 200 via replay", resp.StatusCode, body)
	}
	if got := body["stdout"]; got != "revived\n" {
		t.Fatalf("stdout = %v, want the same-node replay's answer", got)
	}
	if hits.Load() != 2 {
		t.Fatalf("broken backend hit %d times, want 2 (original + same-node replay)", hits.Load())
	}
	if resp.Header.Get("X-Pyroute-Attempts") != "2" {
		t.Fatalf("attempts = %s, want 2", resp.Header.Get("X-Pyroute-Attempts"))
	}
	if v := rt.metrics.idemReplays.Value(); v != 1 {
		t.Fatalf("idemReplays = %d, want 1", v)
	}
}

// corruptBackend answers /v1/run with a valid body but a digest stamped
// over different bytes — the wire-corruption signature.
func corruptBackend(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		body := []byte(`{"apiVersion":"v1","exitClass":"ok","stdout":"corrupt\n"}` + "\n")
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(api.HeaderResultDigest, api.Digest([]byte("not those bytes")))
		w.Write(body)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestCorruptResponseNeverServed: a response failing the digest check is
// never passed to the client — 502 without a key, re-routed to a clean
// replica with one.
func TestCorruptResponseNeverServed(t *testing.T) {
	corrupt := corruptBackend(t)
	good1, good2 := stubBackend(t, "clean\n"), stubBackend(t, "clean\n")
	reg := telemetry.NewRegistry()
	urls := []string{corrupt.URL, good1.URL, good2.URL}
	rt, front := newRouter(t, Config{
		Backends: urls, ProbeInterval: quietProbes,
		BackoffBase: time.Millisecond, Metrics: NewMetrics(reg, urls),
	})
	src := srcOwnedBy(t, rt, 0)

	resp, body := postRun(t, front.URL, src, nil)
	if resp.StatusCode != http.StatusBadGateway || errCode(body) != api.CodeUpstreamError {
		t.Fatalf("no key: status %d code %q, want 502 %s", resp.StatusCode, errCode(body), api.CodeUpstreamError)
	}
	if strings.Contains(fmt.Sprint(body), "corrupt") {
		t.Fatalf("corrupt bytes leaked to the client: %v", body)
	}

	resp, body = postRunKey(t, front.URL, src, "job-9")
	if resp.StatusCode != http.StatusOK || body["stdout"] != "clean\n" {
		t.Fatalf("with key: status %d body %v, want 200 from a clean replica", resp.StatusCode, body)
	}
	if v := rt.metrics.integrityFailures.Value(); v < 2 {
		t.Fatalf("integrityFailures = %d, want >= 2", v)
	}
}

// ---- bounded fleet metrics aggregation -----------------------------------

// TestMetricsAggregationBoundedByStall: one stalled replica delays the
// fleet scrape by at most its own MetricsTimeout and is reported
// unreachable; the healthy replica's series still aggregate.
func TestMetricsAggregationBoundedByStall(t *testing.T) {
	good := http.NewServeMux()
	good.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# HELP pyserve_test_total test\npyserve_test_total 41\n")
	})
	goodTS := httptest.NewServer(good)
	t.Cleanup(goodTS.Close)

	stalled := http.NewServeMux()
	stalled.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold the scrape until the router gives up
	})
	stalledTS := httptest.NewServer(stalled)
	t.Cleanup(stalledTS.Close)

	_, front := newRouter(t, Config{
		Backends: []string{goodTS.URL, stalledTS.URL}, ProbeInterval: quietProbes,
		MetricsTimeout: 100 * time.Millisecond,
	})

	start := time.Now()
	resp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("scrape took %v; the stalled backend held it past its own deadline", elapsed)
	}
	out := buf.String()
	if !strings.Contains(out, "pyserve_test_total 41") {
		t.Fatalf("healthy backend's series missing from scrape:\n%s", out)
	}
	if !strings.Contains(out, "aggregated 1 backends, 1 unreachable") {
		t.Fatalf("unreachable trailer missing:\n%s", out)
	}
}

// ---- half-open readmission race ------------------------------------------

// TestHalfOpenReadmitRace drives two concurrent probe goroutines against
// a backend that keeps flipping back to ejected via traffic-path
// failures, with the cooldown held at ~zero so only the flap breaker
// limits readmission. Run under -race in CI; the invariant either way:
// readmissions never exceed the budget in one window.
func TestHalfOpenReadmitRace(t *testing.T) {
	back := stubBackend(t, "up\n") // readyz always ready
	reg := telemetry.NewRegistry()
	urls := []string{back.URL}
	rt, _ := newRouter(t, Config{
		Backends: urls, ProbeInterval: quietProbes,
		FailThreshold: 1, ReadmitAfter: time.Nanosecond,
		ReadmitBudget: 2, ReadmitWindow: time.Hour,
		Metrics: NewMetrics(reg, urls),
	})
	b := rt.fleet.Load().backends[0]
	b.recordFailure(1, time.Now().Add(-time.Second)) // eject, cooldown long served

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rt.probe(b)
			}
		}()
	}
	wg.Add(1)
	go func() { // traffic path racing the probes: failures re-eject
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.recordFailure(1, time.Now())
		}
	}()
	wg.Wait()

	// The racing loops can end on the very readmission that exhausts the
	// budget, with no probe left to meet the breaker (seen ~1 run in
	// 200). Settle it: budget+1 more eject/probe rounds always exhaust
	// the budget and then hit the breaker at least once.
	for i := 0; i <= rt.cfg.ReadmitBudget; i++ {
		b.recordFailure(1, time.Now().Add(-time.Second))
		rt.probe(b)
	}

	b.mu.Lock()
	readmits := len(b.readmits)
	b.mu.Unlock()
	if budget := rt.cfg.ReadmitBudget; readmits > budget {
		t.Fatalf("%d readmissions in one window, budget is %d: the flap breaker leaked", readmits, budget)
	}
	if v := reg0BreakerHolds(rt); readmits == rt.cfg.ReadmitBudget && v == 0 {
		t.Fatalf("budget exhausted but no breaker hold was recorded")
	}
}

func reg0BreakerHolds(rt *Router) uint64 {
	return rt.metrics.breakerHolds.Value(rt.fleet.Load().backends[0].slot)
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
