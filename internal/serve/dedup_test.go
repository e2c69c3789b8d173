package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/interp"
	"repro/internal/sfcache"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// dedupServer is metricsServer with the *Server exposed (for DedupStats)
// and dedup options under test control.
func dedupServer(t *testing.T, opts Options) (*httptest.Server, *Server, *telemetry.Registry) {
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
	opts.DrainTimeout = 10 * time.Second
	opts.LogW = io.Discard
	srv := NewWithOptions(pool, reg, opts)
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(func() {
		ts.Close()
		pool.Close()
	})
	return ts, srv, reg
}

// postV1 posts req to /v1/run with optional extra headers and returns
// the raw response plus its decoded body bytes.
func postV1(t *testing.T, ts *httptest.Server, req runRequest, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func decodeResult(t *testing.T, raw []byte) runResponse {
	t.Helper()
	var out runResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode /v1/run response: %v\n%s", err, raw)
	}
	return out
}

// TestDedupReplayAbsorbed: a replay of an executed key returns the
// recorded result — same stdout, Deduped set, no second execution.
func TestDedupReplayAbsorbed(t *testing.T) {
	ts, srv, reg := dedupServer(t, Options{})
	req := runRequest{Src: `print("once")`, IdempotencyKey: "key-1"}

	resp1, raw1 := postV1(t, ts, req, nil)
	out1 := decodeResult(t, raw1)
	if resp1.StatusCode != 200 || out1.Stdout != "once\n" {
		t.Fatalf("first run: status %d stdout %q (err %s)", resp1.StatusCode, out1.Stdout, out1.Error)
	}
	if out1.Executions != 1 || out1.Deduped {
		t.Fatalf("first run: Executions=%d Deduped=%v, want 1/false", out1.Executions, out1.Deduped)
	}

	resp2, raw2 := postV1(t, ts, req, map[string]string{api.HeaderRequestID: "replay-77"})
	out2 := decodeResult(t, raw2)
	if resp2.StatusCode != 200 || out2.Stdout != "once\n" {
		t.Fatalf("replay: status %d stdout %q", resp2.StatusCode, out2.Stdout)
	}
	if !out2.Deduped || out2.Executions != 1 {
		t.Fatalf("replay: Deduped=%v Executions=%d, want true/1", out2.Deduped, out2.Executions)
	}
	if out2.RequestID != "replay-77" {
		t.Fatalf("replay RequestID = %q, want the replay's own id", out2.RequestID)
	}

	st := srv.DedupStats()
	if st.Hits != 1 || st.Recorded != 1 || st.MaxExecutions != 1 {
		t.Fatalf("stats = %+v, want Hits=1 Recorded=1 MaxExecutions=1", st)
	}
	var sb strings.Builder
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "pyserve_dedup_hits_total 1") {
		t.Errorf("exposition missing pyserve_dedup_hits_total 1")
	}
}

// TestDedupDistinctKeysExecute: different keys never collide.
func TestDedupDistinctKeysExecute(t *testing.T) {
	ts, srv, _ := dedupServer(t, Options{})
	for _, k := range []string{"a", "b", "c"} {
		_, raw := postV1(t, ts, runRequest{Src: `print("` + k + `")`, IdempotencyKey: k}, nil)
		out := decodeResult(t, raw)
		if out.Stdout != k+"\n" || out.Deduped {
			t.Fatalf("key %s: stdout %q deduped %v", k, out.Stdout, out.Deduped)
		}
	}
	if st := srv.DedupStats(); st.Hits != 0 || st.Recorded != 3 {
		t.Fatalf("stats = %+v, want Hits=0 Recorded=3", st)
	}
}

// TestDedupKeyTooLong: oversized keys are rejected before execution.
func TestDedupKeyTooLong(t *testing.T) {
	ts, _, _ := dedupServer(t, Options{})
	resp, raw := postV1(t, ts, runRequest{
		Src:            `print(1)`,
		IdempotencyKey: strings.Repeat("k", api.MaxIdempotencyKey+1),
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != api.CodeBadIdempotencyKey {
		t.Fatalf("code = %q, want %q", env.Err.Code, api.CodeBadIdempotencyKey)
	}
}

// TestContentDigestVerified: a request whose body does not match its
// X-Content-Digest is rejected 422/integrity_violation without
// executing; a matching digest passes.
func TestContentDigestVerified(t *testing.T) {
	ts, _, reg := dedupServer(t, Options{})
	req := runRequest{Src: `print("ok")`}
	body, _ := json.Marshal(req)

	resp, raw := postV1(t, ts, req, map[string]string{api.HeaderContentDigest: api.Digest(body)})
	if out := decodeResult(t, raw); resp.StatusCode != 200 || out.Stdout != "ok\n" {
		t.Fatalf("matching digest: status %d stdout %q", resp.StatusCode, out.Stdout)
	}

	resp, raw = postV1(t, ts, req, map[string]string{api.HeaderContentDigest: api.Digest([]byte("other"))})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched digest: status = %d, want 422", resp.StatusCode)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Err.Code != api.CodeIntegrity {
		t.Fatalf("code = %q, want %q", env.Err.Code, api.CodeIntegrity)
	}
	var sb strings.Builder
	_ = reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "pyserve_integrity_rejects_total 1") {
		t.Errorf("exposition missing pyserve_integrity_rejects_total 1")
	}
}

// TestResultDigestStamped: every /v1/run response carries an
// X-Pyserve-Digest matching its body bytes — success and rejection
// alike — so the router can fail closed on damaged responses.
func TestResultDigestStamped(t *testing.T) {
	ts, _, _ := dedupServer(t, Options{})
	cases := []runRequest{
		{Src: `print(40 + 2)`},           // 200
		{Src: ""},                        // 400 missing_program
		{Src: `print(1)`, Mode: "bogus"}, // 400 bad_mode
	}
	for i, req := range cases {
		resp, raw := postV1(t, ts, req, nil)
		want := resp.Header.Get(api.HeaderResultDigest)
		if want == "" {
			t.Fatalf("case %d: response missing %s", i, api.HeaderResultDigest)
		}
		if got := api.Digest(raw); got != want {
			t.Fatalf("case %d: body digest %s != header %s", i, got, want)
		}
	}
}

// TestDedupConcurrentSingleFlight: many concurrent requests under one
// key produce exactly one execution; the rest absorb its result.
func TestDedupConcurrentSingleFlight(t *testing.T) {
	ts, srv, _ := dedupServer(t, Options{})
	const n = 16
	var wg sync.WaitGroup
	outs := make([]runResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, raw := postV1(t, ts, runRequest{
				Src:            `print(sum(range(1000)))`,
				IdempotencyKey: "flight-1",
			}, nil)
			outs[i] = decodeResult(t, raw)
		}(i)
	}
	wg.Wait()
	deduped := 0
	for i, out := range outs {
		if out.Stdout != "499500\n" {
			t.Fatalf("request %d: stdout %q", i, out.Stdout)
		}
		if out.Executions > 1 {
			t.Fatalf("request %d: Executions = %d", i, out.Executions)
		}
		if out.Deduped {
			deduped++
		}
	}
	st := srv.DedupStats()
	if st.Recorded != 1 {
		t.Fatalf("Recorded = %d, want 1 (single flight)", st.Recorded)
	}
	if st.MaxExecutions != 1 {
		t.Fatalf("MaxExecutions = %d, want 1", st.MaxExecutions)
	}
	if deduped != n-1 {
		t.Fatalf("deduped replies = %d, want %d", deduped, n-1)
	}
}

// stubBackend is a Backend whose Submit the test scripts, so a test can
// shed, hold or count executions at will.
type stubBackend func(*supervise.Job) *supervise.JobResult

func (b stubBackend) Submit(j *supervise.Job) *supervise.JobResult { return b(j) }
func (stubBackend) Stats() supervise.Stats                         { return supervise.Stats{Workers: 1} }
func (stubBackend) Drain(time.Duration) bool                       { return true }

// stubServer serves a Server over submit; each executed job's stdout is
// its execution number.
func stubServer(t *testing.T, opts Options, submit func(*supervise.Job) *supervise.JobResult) (*httptest.Server, *Server) {
	t.Helper()
	opts.LogW = io.Discard
	srv := NewWithOptions(stubBackend(submit), telemetry.NewRegistry(), opts)
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(ts.Close)
	return ts, srv
}

// countingOK returns a submit func that answers ClassOK with the
// execution number as stdout.
func countingOK(runs *atomic.Int64) func(*supervise.Job) *supervise.JobResult {
	return func(*supervise.Job) *supervise.JobResult {
		return &supervise.JobResult{Class: supervise.ClassOK, Output: fmt.Sprint(runs.Add(1))}
	}
}

// holding returns a submit func that blocks jobs whose source is hold
// until release closes, signalling entered as each one starts; other
// jobs count through runs.
func holding(hold string, entered chan<- struct{}, release <-chan struct{}, runs *atomic.Int64) func(*supervise.Job) *supervise.JobResult {
	ok := countingOK(runs)
	return func(j *supervise.Job) *supervise.JobResult {
		if j.Src == hold {
			entered <- struct{}{}
			<-release
			return &supervise.JobResult{Class: supervise.ClassOK, Output: "held"}
		}
		return ok(j)
	}
}

// TestDedupCacheTTL: a recorded result replays within the TTL, the
// window runs from the last replay, and once it lapses the key executes
// afresh.
func TestDedupCacheTTL(t *testing.T) {
	var runs atomic.Int64
	ts, srv := stubServer(t, Options{}, countingOK(&runs))
	var clock atomic.Int64
	clock.Store(time.Unix(1000, 0).UnixNano())
	srv.dedup = sfcache.New[string, api.RunResultV1](time.Minute, 8,
		func() time.Time { return time.Unix(0, clock.Load()) })
	req := runRequest{Src: "print(1)\n", IdempotencyKey: "k"}

	if _, raw := postV1(t, ts, req, nil); decodeResult(t, raw).Deduped {
		t.Fatal("first run deduped")
	}
	// Two replays 50 s apart: the second is 100 s after the execution but
	// only 50 s after the last use, so it still replays.
	for i := 0; i < 2; i++ {
		clock.Add(int64(50 * time.Second))
		if _, raw := postV1(t, ts, req, nil); !decodeResult(t, raw).Deduped {
			t.Fatalf("replay %d within the TTL of the last use executed", i+1)
		}
	}
	clock.Add(int64(2 * time.Minute))
	_, raw := postV1(t, ts, req, nil)
	if out := decodeResult(t, raw); out.Deduped || out.Stdout != "2" {
		t.Fatalf("after the TTL: deduped=%v stdout=%q, want a fresh execution", out.Deduped, out.Stdout)
	}
	if st := srv.DedupStats(); st.Expirations != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want Expirations=1 Hits=2", st)
	}
}

// TestDedupShedNotRecorded: a shed (the body never ran) releases the key
// so the retry executes, and only that execution is recorded.
func TestDedupShedNotRecorded(t *testing.T) {
	var runs atomic.Int64
	ok := countingOK(&runs)
	var shed atomic.Bool
	shed.Store(true)
	ts, srv := stubServer(t, Options{}, func(j *supervise.Job) *supervise.JobResult {
		if shed.Swap(false) {
			return &supervise.JobResult{Class: supervise.ClassShed, RetryAfter: time.Second}
		}
		return ok(j)
	})
	req := runRequest{Src: "print(1)\n", IdempotencyKey: "k"}

	if resp, _ := postV1(t, ts, req, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("first attempt: status %d, want 503", resp.StatusCode)
	}
	if st := srv.DedupStats(); st.Recorded != 0 {
		t.Fatalf("Recorded = %d after a shed, want 0", st.Recorded)
	}
	_, raw := postV1(t, ts, req, nil)
	if out := decodeResult(t, raw); out.Deduped || out.Stdout != "1" || out.Executions != 1 {
		t.Fatalf("retry after shed: deduped=%v stdout=%q executions=%d, want the first execution",
			out.Deduped, out.Stdout, out.Executions)
	}
	_, raw = postV1(t, ts, req, nil)
	if out := decodeResult(t, raw); !out.Deduped || out.Stdout != "1" {
		t.Fatalf("replay: deduped=%v stdout=%q, want the recorded execution", out.Deduped, out.Stdout)
	}
	if st := srv.DedupStats(); st.Recorded != 1 || st.MaxExecutions != 1 {
		t.Fatalf("stats = %+v, want Recorded=1 MaxExecutions=1", st)
	}
}

// TestDedupCapacityEviction: at capacity the least recently used
// recorded key is evicted; when every entry is pending a new key
// executes unrecorded (at-least-once for that key) rather than evicting
// an in-flight one.
func TestDedupCapacityEviction(t *testing.T) {
	var runs atomic.Int64
	ts, srv := stubServer(t, Options{DedupCap: 2}, countingOK(&runs))
	run := func(key string) runResponse {
		_, raw := postV1(t, ts, runRequest{Src: "print(1)\n", IdempotencyKey: key}, nil)
		return decodeResult(t, raw)
	}

	run("a")
	run("b")
	if !run("a").Deduped { // a is now the most recently used
		t.Fatal("replay of a not deduped")
	}
	run("c") // evicts b, the least recently used
	if st := srv.DedupStats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if !run("a").Deduped {
		t.Fatal("recently used key a was evicted")
	}
	if run("b").Deduped {
		t.Fatal("evicted key b replayed instead of executing afresh")
	}

	// Cap 1 held by a pending key: a second key bypasses the cache.
	entered, release := make(chan struct{}), make(chan struct{})
	ts1, srv1 := stubServer(t, Options{DedupCap: 1}, holding(`print("hold")`, entered, release, &runs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		postV1(t, ts1, runRequest{Src: `print("hold")`, IdempotencyKey: "p"}, nil)
	}()
	<-entered
	q := runRequest{Src: "print(1)\n", IdempotencyKey: "q"}
	for i := 0; i < 2; i++ {
		_, raw := postV1(t, ts1, q, nil)
		if out := decodeResult(t, raw); out.Deduped || out.Executions != 1 {
			t.Fatalf("bypassed key run %d: deduped=%v executions=%d, want an unrecorded execution",
				i+1, out.Deduped, out.Executions)
		}
	}
	close(release)
	<-done
	if st := srv1.DedupStats(); st.Recorded != 1 {
		t.Fatalf("Recorded = %d, want 1 (only the pending key)", st.Recorded)
	}
}

// TestDedupWaitCancel: a replay waiting behind an in-flight execution
// stops waiting when its request context ends, and answers nothing.
func TestDedupWaitCancel(t *testing.T) {
	var runs atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	ts, srv := stubServer(t, Options{}, holding(`print("hold")`, entered, release, &runs))
	req := runRequest{Src: `print("hold")`, IdempotencyKey: "k"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		postV1(t, ts, req, nil)
	}()
	<-entered

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	srv.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)).WithContext(ctx))
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled waiter answered: %s", rec.Body.String())
	}
	close(release)
	<-done
	if st := srv.DedupStats(); st.Hits != 0 || st.Recorded != 1 {
		t.Fatalf("stats = %+v, want Hits=0 Recorded=1", st)
	}
}
