package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/interp"
	"repro/internal/runtime"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// The wire types under test are the shared versioned API structs.
type (
	runRequest  = api.RunRequestV1
	runResponse = api.RunResultV1
)

// syncBuffer is a mutex-guarded log sink for tests that inspect the
// per-job log lines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func smokeServer(t *testing.T) (*httptest.Server, *supervise.Sched) {
	ts, pool, _ := metricsServer(t, io.Discard)
	return ts, pool
}

// metricsServer is smokeServer with the telemetry registry exposed and a
// caller-chosen log sink.
func metricsServer(t *testing.T, logw io.Writer) (*httptest.Server, *supervise.Sched, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{
		Workers: 2,
		Metrics: supervise.NewMetrics(reg),
		DefaultLimits: interp.Limits{
			MaxSteps:       10_000_000,
			MaxHeapBytes:   128 << 20,
			Deadline:       30 * time.Second,
			MaxOutputBytes: 1 << 20,
		},
	})
	ts := httptest.NewServer(NewWithOptions(pool, reg, Options{DrainTimeout: 10 * time.Second, LogW: logw}).Mux())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return ts, pool, reg
}

func postRun(t *testing.T, ts *httptest.Server, req runRequest) (int, runResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out runResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /run response: %v", err)
	}
	return resp.StatusCode, out
}

// TestSmoke is the CI gate: 50 mixed-mode requests through the HTTP
// surface — healthy programs, an ordinary Python error, and one request
// per governor limit class — after which the pool must report zero
// worker deaths of any kind.
func TestSmoke(t *testing.T) {
	ts, pool := smokeServer(t)

	type want struct {
		status int
		class  string
		exit   int
		stdout string
	}
	post := func(i int, req runRequest, w want) {
		t.Helper()
		status, out := postRun(t, ts, req)
		if status != w.status || out.ExitClass != w.class || out.ExitCode != w.exit {
			t.Fatalf("request %d (%s): status %d class %s exit %d (err %q), want %d/%s/%d",
				i, req.Name, status, out.ExitClass, out.ExitCode, out.Error,
				w.status, w.class, w.exit)
		}
		if w.stdout != "" && out.Stdout != w.stdout {
			t.Fatalf("request %d (%s): stdout %q, want %q", i, req.Name, out.Stdout, w.stdout)
		}
	}

	reqs := 0
	// 44 healthy requests cycling through every runtime mode.
	for i := 0; i < 44; i++ {
		mode := runtime.Mode(i % int(runtime.NumModes)).String()
		post(reqs, runRequest{
			Name: fmt.Sprintf("ok-%d.py", i),
			Mode: mode,
			Src:  fmt.Sprintf("total = 0\nfor j in range(50):\n    total = total + j\nprint(total + %d)\n", i),
		}, want{status: 200, class: "ok", exit: 0, stdout: fmt.Sprintf("%d\n", 1225+i)})
		reqs++
	}

	// One ordinary Python error.
	post(reqs, runRequest{Name: "err.py", Src: "print(no_such_name)\n"},
		want{status: 200, class: "error", exit: 1})
	reqs++

	// One request per limit class, each with a per-request budget.
	limitReqs := []struct {
		name  string
		src   string
		lim   api.Limits
		class string
		exit  int
	}{
		{"steps.py", "i = 0\nwhile True:\n    i = i + 1\n",
			api.Limits{MaxSteps: 100_000}, "timeout", 4},
		{"deadline.py", "i = 0\nwhile True:\n    i = i + 1\n",
			api.Limits{MaxSteps: 1 << 40, Deadline: 30 * time.Millisecond}, "timeout", 4},
		{"heap.py", "l = []\nwhile True:\n    l.append(\"0123456789abcdef\")\n",
			api.Limits{MaxHeapBytes: 1 << 20}, "memory", 5},
		{"recursion.py", "def f(n):\n    return f(n + 1)\nf(0)\n",
			api.Limits{MaxRecursionDepth: 64}, "recursion", 6},
		{"output.py", "while True:\n    print(\"aaaaaaaaaaaaaaaa\")\n",
			api.Limits{MaxOutputBytes: 32 << 10}, "output-limit", 7},
	}
	for i, lr := range limitReqs {
		mode := runtime.Mode(i % int(runtime.NumModes)).String()
		post(reqs, runRequest{Name: lr.name, Src: lr.src, Mode: mode, Limits: &lr.lim},
			want{status: 200, class: lr.class, exit: lr.exit})
		reqs++
	}

	if reqs != 50 {
		t.Fatalf("smoke sent %d requests, want 50", reqs)
	}

	st := pool.Stats()
	if st.Poisoned != 0 || st.Wedged != 0 {
		t.Fatalf("smoke run killed Runners: %+v", st)
	}
	if st.Workers == 0 {
		t.Fatalf("no slots after smoke: %+v", st)
	}
}

// TestHealthz: the health endpoint reports live workers and lifetime
// counters.
func TestHealthz(t *testing.T) {
	ts, _ := smokeServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Ok || h.Stats.Workers != 2 {
		t.Fatalf("healthz %+v", h)
	}
}

// TestDrainz: draining flips the daemon into rejection mode — /run
// sheds with a Retry-After hint and /v1/readyz goes not-ready — but
// /healthz stays healthy: a draining node is alive (liveness), just not
// routable (readiness). Conflating the two made routers eject nodes
// that were gracefully finishing their in-flight work.
func TestDrainz(t *testing.T) {
	ts, _ := smokeServer(t)
	resp, err := http.Post(ts.URL+"/drainz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("drainz status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(runRequest{Name: "x.py", Src: "print(1)\n"})
	runResp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out runResponse
	if err := json.NewDecoder(runResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	runResp.Body.Close()
	if runResp.StatusCode != http.StatusServiceUnavailable || out.ExitClass != "shed" {
		t.Fatalf("post-drain run: status %d class %s", runResp.StatusCode, out.ExitClass)
	}
	// The drain rejection must carry a Retry-After hint: the routing
	// tier's backoff keys off it instead of guessing.
	if ra := runResp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("post-drain 503 without Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("post-drain Retry-After %q not a positive integer", ra)
	}
	if out.RetryAfter <= 0 {
		t.Fatalf("post-drain body retryAfterMs %v, want > 0", out.RetryAfter)
	}
	// Liveness: still alive while draining.
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain healthz status %d, want 200 (draining is not death)", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/healthz"); err == nil {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain /v1/healthz status %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Readiness: not routable while draining, with a backoff hint.
	resp2, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz status %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("not-ready readyz without Retry-After header")
	}
	var rz readyzResponse
	if err := json.NewDecoder(resp2.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	if rz.Ready || rz.Reason != "draining" {
		t.Fatalf("post-drain readyz %+v, want not-ready/draining", rz)
	}
}

// TestReadyz: a healthy, undrained node is ready; readiness and liveness
// agree on the happy path.
func TestReadyz(t *testing.T) {
	ts, _ := smokeServer(t)
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz status %d", resp.StatusCode)
	}
	var rz readyzResponse
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	if !rz.Ready || rz.Reason != "" {
		t.Fatalf("readyz %+v, want ready", rz)
	}
	if rz.Stats.HeapWatermark == 0 {
		t.Fatalf("readyz stats missing heap watermark: %+v", rz.Stats)
	}
}

// TestDrainzTimeoutRetryAfter: when in-flight work outlives the drain
// window, the 504 carries a Retry-After hint for the next attempt.
func TestDrainzTimeoutRetryAfter(t *testing.T) {
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{
		Workers: 1,
		DefaultLimits: interp.Limits{
			MaxSteps: 1 << 40,
			Deadline: 2 * time.Second,
		},
	})
	ts := httptest.NewServer(NewWithOptions(pool, reg, Options{DrainTimeout: 50 * time.Millisecond, LogW: io.Discard}).Mux())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})

	// Occupy the only worker past the drain window.
	started := make(chan struct{})
	go func() {
		close(started)
		postRun(t, ts, runRequest{Name: "busy.py",
			Src: "i = 0\nwhile True:\n    i = i + 1\n",
			Limits: &api.Limits{MaxSteps: 1 << 40,
				Deadline: 900 * time.Millisecond}})
	}()
	<-started
	time.Sleep(100 * time.Millisecond) // let the job reach a worker

	resp, err := http.Post(ts.URL+"/drainz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("drainz under load status %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drainz timeout 504 without Retry-After header")
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-Id survives to
// the response body, header, and log line — the router's end-to-end id
// contract — while an oversized id is discarded for a generated one.
func TestRequestIDPropagation(t *testing.T) {
	logs := &syncBuffer{}
	ts, _, _ := metricsServer(t, logs)

	body, _ := json.Marshal(runRequest{Name: "rid.py", Src: "print(1)\n"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderRequestID, "edge-7.r2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out runResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.RequestID != "edge-7.r2" || resp.Header.Get(api.HeaderRequestID) != "edge-7.r2" {
		t.Fatalf("client id not propagated: body %q header %q",
			out.RequestID, resp.Header.Get(api.HeaderRequestID))
	}
	if !strings.Contains(logs.String(), `"requestId":"edge-7.r2"`) {
		t.Fatalf("log line missing client id:\n%s", logs.String())
	}

	// An oversized id is replaced, not echoed.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	req2.Header.Set(api.HeaderRequestID, strings.Repeat("x", maxRequestID+1))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var out2 runResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if strings.HasPrefix(out2.RequestID, "x") || out2.RequestID == "" {
		t.Fatalf("oversized client id echoed back: %q", out2.RequestID)
	}
}

// TestBadRequests: malformed input gets 4xx, not a crash.
func TestBadRequests(t *testing.T) {
	ts, _ := smokeServer(t)
	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"no src", "{}", http.StatusBadRequest},
		{"bad mode", `{"src": "print(1)", "mode": "jython"}`, http.StatusBadRequest},
		{"negative deadline", `{"src": "print(1)", "limits": {"deadlineMs": -1}}`, http.StatusBadRequest},
		{"negative recursion depth", `{"src": "print(1)", "limits": {"maxRecursionDepth": -5}}`, http.StatusBadRequest},
		{"negative steps", `{"src": "print(1)", "limits": {"maxSteps": -1}}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run status %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint: after mixed traffic, GET /metrics serves a
// well-formed Prometheus exposition with job counters by class, latency
// histograms, and occupancy gauges.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := metricsServer(t, io.Discard)
	for i := 0; i < 3; i++ {
		if status, out := postRun(t, ts, runRequest{Src: "print(1)\n"}); status != 200 || out.ExitClass != "ok" {
			t.Fatalf("warm-up: %d %s", status, out.ExitClass)
		}
	}
	postRun(t, ts, runRequest{Src: "print(boom)\n"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE minipy_jobs_total counter",
		`minipy_jobs_total{class="ok"} 3`,
		`minipy_jobs_total{class="error"} 1`,
		"# TYPE minipy_job_run_seconds histogram",
		`minipy_job_run_seconds_bucket{class="ok",le="+Inf"} 3`,
		"# TYPE minipy_sched_running gauge",
		"minipy_sched_waiting 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}

	if resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /metrics status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestMetricsWithoutRegistry: a server built without a registry still
// runs jobs and answers GET /v1/metrics with an empty exposition — the
// nil registry is inert like every nil instrument.
func TestMetricsWithoutRegistry(t *testing.T) {
	pool := supervise.NewPool(supervise.Config{Workers: 1})
	ts := httptest.NewServer(NewWithOptions(pool, nil, Options{}).Mux())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	if status, out := postRun(t, ts, runRequest{Src: "print(1)\n"}); status != 200 || out.ExitClass != "ok" {
		t.Fatalf("run: %d %s", status, out.ExitClass)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("status %d, body %q; want 200 and an empty exposition", resp.StatusCode, body)
	}
}

// TestBreakdownRequest: "breakdown": true returns the Table-II-style
// per-category report alongside a correct result; ordinary requests
// carry none.
func TestBreakdownRequest(t *testing.T) {
	ts, _ := smokeServer(t)
	status, out := postRun(t, ts, runRequest{
		Name:      "bd.py",
		Src:       "print(sum(range(10)))\n",
		Breakdown: true,
	})
	if status != 200 || out.ExitClass != "ok" || out.Stdout != "45\n" {
		t.Fatalf("breakdown run: %d %s %q (%s)", status, out.ExitClass, out.Stdout, out.Error)
	}
	bd := out.Breakdown
	if bd == nil {
		t.Fatal("no breakdown in response")
	}
	if bd.TotalCycles == 0 || bd.TotalInstrs == 0 || len(bd.Rows) == 0 {
		t.Fatalf("degenerate breakdown: %+v", bd)
	}
	if bd.OverheadPercent < 0 || bd.OverheadPercent > 100 {
		t.Fatalf("overhead percent %v out of range", bd.OverheadPercent)
	}
	var pct float64
	for _, row := range bd.Rows {
		pct += row.Percent
	}
	if pct < 99.0 || pct > 101.0 {
		t.Fatalf("category percentages sum to %v, want ~100", pct)
	}

	if _, plain := postRun(t, ts, runRequest{Src: "print(1)\n"}); plain.Breakdown != nil {
		t.Fatal("plain request unexpectedly carries a breakdown")
	}
}

// TestDeadlineClamp is the overflow regression: a deadlineMs large
// enough to overflow the ms→ns conversion used to reach the pool as a
// negative Deadline and make the watchdog condemn the healthy worker
// mid-job. Normalize rejects it with a 400, the pool never sees it, and
// follow-up traffic finds the workers intact.
func TestDeadlineClamp(t *testing.T) {
	ts, pool := smokeServer(t)
	for _, deadlineMs := range []int64{
		1 << 62,               // overflows time.Duration(ms) * time.Millisecond
		9223372036854775807,   // MaxInt64
		api.MaxDeadlineMs + 1, // just past the cap
	} {
		body := fmt.Sprintf(`{"src": "print(6 * 7)\n", "limits": {"deadlineMs": %d}}`, deadlineMs)
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadlineMs %d: status %d, want 400", deadlineMs, resp.StatusCode)
		}
	}
	// The cap itself is admissible.
	if status, out := postRun(t, ts, runRequest{
		Src:    "print(6 * 7)\n",
		Limits: &api.Limits{Deadline: api.MaxDeadline},
	}); status != 200 || out.ExitClass != "ok" || out.Stdout != "42\n" {
		t.Fatalf("deadlineMs at cap: %d %s %q", status, out.ExitClass, out.Stdout)
	}

	st := pool.Stats()
	if st.Wedged != 0 || st.Poisoned != 0 || st.Restarts != 0 {
		t.Fatalf("deadline probes condemned workers: %+v", st)
	}
	if st.Workers != 2 {
		t.Fatalf("pool lost workers: %+v", st)
	}
}

// TestRetryAfterSeconds: the Retry-After header rounds the hint UP —
// truncation told clients to retry before the hint elapsed.
func TestRetryAfterSecondsRounding(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1900 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{2*time.Second + time.Millisecond, 3},
	} {
		if got := RetryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestRequestIDs: every executed request gets a daemon-unique id echoed
// in body and header, and exactly one structured log line.
func TestRequestIDs(t *testing.T) {
	logs := &syncBuffer{}
	ts, _, _ := metricsServer(t, logs)

	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(runRequest{Name: fmt.Sprintf("id-%d.py", i), Src: "print(1)\n"})
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out runResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.RequestID == "" {
			t.Fatal("response without requestId")
		}
		if hdr := resp.Header.Get("X-Request-Id"); hdr != out.RequestID {
			t.Fatalf("header id %q != body id %q", hdr, out.RequestID)
		}
		if seen[out.RequestID] {
			t.Fatalf("duplicate request id %s", out.RequestID)
		}
		seen[out.RequestID] = true
	}

	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d log lines, want 3:\n%s", len(lines), logs.String())
	}
	for _, line := range lines {
		var entry jobLog
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if !seen[entry.RequestID] || entry.Class != "ok" || entry.Name == "" || entry.Time == "" {
			t.Fatalf("malformed log entry %+v", entry)
		}
	}
}

// postRunV1 drives the versioned endpoint.
func postRunV1(t *testing.T, ts *httptest.Server, req api.RunRequestV1) (int, api.RunResultV1) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.RunResultV1
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode /v1/run response: %v", err)
	}
	return resp.StatusCode, out
}

// TestV1Run: the versioned endpoint executes jobs, stamps the API
// version, and reports inline-cache effectiveness in stats.
func TestV1Run(t *testing.T) {
	ts, _ := smokeServer(t)
	status, out := postRunV1(t, ts, api.RunRequestV1{
		Name: "v1.py",
		Src:  "class C:\n    def __init__(self):\n        self.v = 3\n    def get(self):\n        return self.v\nc = C()\ntotal = 0\nfor i in range(200):\n    total = total + c.get()\nprint(total)\n",
	})
	if status != 200 || out.ExitClass != "ok" || out.Stdout != "600\n" {
		t.Fatalf("v1 run: %d %s %q (%s)", status, out.ExitClass, out.Stdout, out.Error)
	}
	if out.APIVersion != api.Version {
		t.Fatalf("apiVersion %q, want %q", out.APIVersion, api.Version)
	}
	if out.Stats == nil {
		t.Fatal("v1 result without stats")
	}
	if out.Stats.ICHits == 0 {
		t.Fatalf("attribute-heavy program recorded no IC hits: %+v", out.Stats)
	}
	if out.Stats.ICHitRate <= 0.5 || out.Stats.ICHitRate > 1 {
		t.Fatalf("IC hit rate %v out of expected range (stats %+v)", out.Stats.ICHitRate, out.Stats)
	}
}

// TestV1ErrorEnvelope: /v1 rejections carry machine-readable codes;
// the legacy alias keeps the flat error string.
func TestV1ErrorEnvelope(t *testing.T) {
	ts, _ := smokeServer(t)
	for _, tc := range []struct {
		name, body, code string
		status           int
	}{
		{"bad json", "{", api.CodeBadJSON, http.StatusBadRequest},
		{"no src", "{}", api.CodeMissingProgram, http.StatusBadRequest},
		{"src and ref", `{"src": "print(1)", "programRef": "` + strings.Repeat("a", 64) + `"}`,
			api.CodeMissingProgram, http.StatusBadRequest},
		{"malformed ref", `{"programRef": "nothex"}`, api.CodeBadProgram, http.StatusBadRequest},
		{"bad mode", `{"src": "print(1)", "mode": "jython"}`, api.CodeBadMode, http.StatusBadRequest},
		{"negative deadline", `{"src": "print(1)", "limits": {"deadlineMs": -1}}`, api.CodeInvalidLimits, http.StatusBadRequest},
		{"over-cap deadline", `{"src": "print(1)", "limits": {"deadlineMs": 86400001}}`, api.CodeInvalidLimits, http.StatusBadRequest},
		{"negative recursion", `{"src": "print(1)", "limits": {"maxRecursionDepth": -5}}`, api.CodeInvalidLimits, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: decode envelope: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || env.Err.Code != tc.code || env.Err.Message == "" {
			t.Fatalf("%s: status %d code %q msg %q, want %d/%s",
				tc.name, resp.StatusCode, env.Err.Code, env.Err.Message, tc.status, tc.code)
		}
	}

	// Legacy alias: flat {"error": "message"} shape, no envelope.
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var flat map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		t.Fatalf("legacy error not flat: %v", err)
	}
	resp.Body.Close()
	if flat["error"] != "missing src" {
		t.Fatalf("legacy error body %v", flat)
	}
}

// TestLegacyDeprecationHeader: the unversioned /run alias executes
// identically to /v1/run but announces its deprecation.
func TestLegacyDeprecationHeader(t *testing.T) {
	ts, _ := smokeServer(t)
	body, _ := json.Marshal(runRequest{Src: "print(1)\n"})
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Deprecation") != "true" {
		t.Fatal("legacy /run missing Deprecation header")
	}
	if link := resp.Header.Get("Link"); !strings.Contains(link, "/v1/run") {
		t.Fatalf("legacy /run Link header %q does not point at successor", link)
	}
	var out runResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ExitClass != "ok" || out.Stdout != "1\n" {
		t.Fatalf("legacy run: %s %q", out.ExitClass, out.Stdout)
	}

	// The versioned endpoint must NOT carry the deprecation marker.
	resp2, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("Deprecation") != "" {
		t.Fatal("/v1/run unexpectedly marked deprecated")
	}
}

// TestV1MetricsICCounters: after IC-heavy traffic, /v1/metrics exposes
// the inline-cache counter families with nonzero hit counts.
func TestV1MetricsICCounters(t *testing.T) {
	ts, _, _ := metricsServer(t, io.Discard)
	src := "class C:\n    def __init__(self):\n        self.v = 1\nc = C()\nt = 0\nfor i in range(300):\n    t = t + c.v\nprint(t)\n"
	if status, out := postRunV1(t, ts, api.RunRequestV1{Src: src}); status != 200 || out.ExitClass != "ok" {
		t.Fatalf("warm-up: %d %s (%s)", status, out.ExitClass, out.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/metrics status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(b)
	for _, want := range []string{
		"# TYPE minipy_ic_hits_total counter",
		`minipy_ic_hits_total{site="attr"}`,
		`minipy_ic_misses_total{site=`,
		"# TYPE minipy_ic_invalidations_total counter",
		"# TYPE minipy_ic_dequickened_total counter",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(exposition, `minipy_ic_hits_total{site="attr"} 0`) {
		t.Error("attr IC hits stayed zero after attribute-heavy traffic")
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", exposition)
	}
}

// TestV1Healthz: the versioned health endpoint mirrors /healthz.
func TestV1Healthz(t *testing.T) {
	ts, _ := smokeServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/healthz status %d", resp.StatusCode)
	}
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Ok || h.Stats.Workers != 2 {
		t.Fatalf("v1 healthz %+v", h)
	}
}

// TestSchedBackendOverHTTP drives the step-sliced scheduler through the
// full HTTP surface: the serve layer is backend-generic, so lanes,
// tenants, preemption counts, and the lifecycle trace must survive the
// round trip through the /v1 wire types. Concurrent jobs on fewer slots
// force real interleaving.
func TestSchedBackendOverHTTP(t *testing.T) {
	reg := telemetry.NewRegistry()
	sched := supervise.NewSched(supervise.SchedConfig{
		Slots:        2,
		QuantumSteps: 2000,
		Metrics:      supervise.NewMetrics(reg),
		DefaultLimits: interp.Limits{
			MaxSteps:       50_000_000,
			MaxHeapBytes:   128 << 20,
			Deadline:       30 * time.Second,
			MaxOutputBytes: 1 << 20,
		},
	})
	ts := httptest.NewServer(NewWithOptions(sched, reg, Options{DrainTimeout: 10 * time.Second, LogW: io.Discard}).Mux())
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})

	loop := "i = 0\nacc = 0\nwhile i < 200000:\n    acc = acc + i\n    i = i + 1\nprint(acc)\n"
	const jobs = 8
	results := make([]runResponse, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(runRequest{
				Src:    loop,
				Lane:   i % 2,
				Tenant: fmt.Sprintf("tenant-%d", i%3),
			})
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&results[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	preempted := 0
	for i, out := range results {
		if out.ExitClass != "ok" || out.Stdout != "19999900000\n" {
			t.Fatalf("job %d: class %q stdout %q err %q", i, out.ExitClass, out.Stdout, out.Error)
		}
		if out.Preemptions > 0 {
			preempted++
		}
		if n := len(out.Lifecycle); n > 0 {
			if out.Lifecycle[0].State != "queued" || out.Lifecycle[0].OffsetMs != 0 {
				t.Fatalf("job %d: lifecycle starts %+v, want queued at offset 0", i, out.Lifecycle[0])
			}
			if out.Lifecycle[n-1].State != "finished" {
				t.Fatalf("job %d: lifecycle ends %q, want finished", i, out.Lifecycle[n-1].State)
			}
		} else {
			t.Fatalf("job %d: no lifecycle trace from sched backend", i)
		}
	}
	if preempted == 0 {
		t.Fatal("8 jobs on 2 slots with a small quantum and none reported a preemption")
	}

	// The readiness/drain surface runs off the same Backend interface.
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz on idle sched backend: %d", resp.StatusCode)
	}
}
