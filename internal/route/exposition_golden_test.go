package route

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/telemetry"
)

var updateExposition = flag.Bool("update-exposition", false, "regenerate testdata/exposition.golden")

// goldenValueFamilies are the families whose values the scripted scenario
// fixes exactly; every other series is pinned by key only (latencies,
// gauges, ring-dependent per-backend splits).
var goldenValueFamilies = []string{
	"pyroute_requests_total", "pyroute_retries_total", "pyroute_retry_budget_exhausted_total",
	"pyroute_hedges_total", "pyroute_hedge_wins_total", "pyroute_reconfigs_total",
	"pyroute_integrity_failures_total", "pyroute_idempotent_replays_total",
	"minipy_jobs_total", "minipy_pool_events_total", "minipy_sched_transitions_total",
	"minipy_job_queue_wait_seconds_count", "minipy_job_run_seconds_count",
	"pyserve_dedup_hits_total", "pyserve_dedup_recorded_total",
	"pyserve_dedup_evictions_total", "pyserve_integrity_rejects_total",
}

// TestExpositionGolden drives a scripted fleet — two pyserve backends
// behind an instrumented router; ok, error and limit jobs; one keyed
// replay; one reload adding a third backend — and pins the router's
// aggregated /v1/metrics: every HELP/TYPE line, every series key, and
// the value of every series in goldenValueFamilies. Backend URLs are
// rewritten to b0..b2 so the golden does not depend on ephemeral ports.
// Regenerate with -update-exposition.
func TestExpositionGolden(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newServeBackend(t, 1)
		urls = append(urls, ts.URL)
	}
	rt, front := newRouter(t, Config{
		Backends: urls[:2],
		Metrics:  NewMetrics(telemetry.NewRegistry(), urls[:2]),
	})

	run := func(req api.RunRequestV1, wantClass string) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(front.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/run: %v", err)
		}
		defer resp.Body.Close()
		var out api.RunResultV1
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode (status %d): %v", resp.StatusCode, err)
		}
		if out.ExitClass != wantClass {
			t.Fatalf("%q: exitClass %q, want %q (%s)", req.Src, out.ExitClass, wantClass, out.Error)
		}
	}
	run(api.RunRequestV1{Src: "print(6 * 7)\n"}, "ok")
	run(api.RunRequestV1{Src: "s = 0\nfor i in range(10):\n    s += i\nprint(s)\n"}, "ok")
	run(api.RunRequestV1{Src: "raise ValueError('golden')\n"}, "error")
	run(api.RunRequestV1{Src: "while True:\n    pass\n", Limits: &api.Limits{MaxSteps: 10_000}}, "timeout")
	keyed := api.RunRequestV1{Src: "print('keyed')\n", IdempotencyKey: "golden-key"}
	run(keyed, "ok")
	run(keyed, "ok") // absorbed by the owning backend's dedup cache
	if _, _, err := rt.Reconfigure(urls); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	run(api.RunRequestV1{Src: "print('after reload')\n"}, "ok")

	resp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for i, u := range urls {
		text = strings.ReplaceAll(text, `"`+u+`"`, `"b`+string(rune('0'+i))+`"`)
	}
	valued := make(map[string]bool, len(goldenValueFamilies))
	for _, f := range goldenValueFamilies {
		valued[f] = true
	}
	var lines []string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# pyroute:"):
			continue
		case strings.HasPrefix(line, "#"):
			lines = append(lines, line)
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		key, val := line[:sp], line[sp+1:]
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		if !valued[name] {
			val = "*"
		}
		lines = append(lines, key+" "+val)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "exposition.golden")
	if *updateExposition {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-exposition): %v", err)
	}
	if got != string(want) {
		wantSet := make(map[string]bool)
		for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
			wantSet[l] = true
		}
		for _, l := range lines {
			if !wantSet[l] {
				t.Errorf("not in golden: %s", l)
			}
			delete(wantSet, l)
		}
		for l := range wantSet {
			t.Errorf("missing from exposition: %s", l)
		}
	}
}
