package serve

// Tests for the program-store serving surface: POST /v1/programs
// registration, GET/DELETE /v1/programs/{ref} admin operations,
// run-by-reference /v1/run with programCache stamping, IC-seed
// donation, and the benchgate overhead guard for the store's hot-path
// lookup cost.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/benchgate"
	"repro/internal/progstore"
)

// seedableSrc quickens enough sites (global builtin, attr slots, method
// loads) that a completed run exports a non-empty IC seed.
const seedableSrc = `
class Counter:
    def __init__(self):
        self.n = 0
    def inc(self):
        self.n = self.n + 1
        return self.n
c = Counter()
d = Counter()
total = 0
i = 0
while i < 200:
    total = total + c.inc() + d.inc()
    i = i + 1
print(total)
`

// postJSON posts body to path and returns the status and raw response.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func registerProgram(t *testing.T, ts *httptest.Server, src string) api.RegisterResultV1 {
	t.Helper()
	body, _ := json.Marshal(api.RegisterRequestV1{Src: src})
	status, raw := postJSON(t, ts, "/v1/programs", string(body))
	if status != 200 {
		t.Fatalf("POST /v1/programs status %d: %s", status, raw)
	}
	var res api.RegisterResultV1
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode register result: %v", err)
	}
	return res
}

func envelopeCode(t *testing.T, raw []byte) string {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decode error envelope from %s: %v", raw, err)
	}
	return env.Err.Code
}

// TestProgramRegistration: registration returns the content address,
// is idempotent, and rejects malformed input with the v1 envelope.
func TestProgramRegistration(t *testing.T) {
	ts, _ := smokeServer(t)
	src := "print(6 * 7)\n"

	res := registerProgram(t, ts, src)
	if res.ProgramRef != progstore.Ref(src) {
		t.Errorf("ref %q, want content address %q", res.ProgramRef, progstore.Ref(src))
	}
	if !res.Compiled {
		t.Error("Compiled false on a 200 registration")
	}
	if res.ICSeedAvailable {
		t.Error("ICSeedAvailable true before any run")
	}
	if again := registerProgram(t, ts, src); again.ProgramRef != res.ProgramRef {
		t.Errorf("re-registration changed ref: %q vs %q", again.ProgramRef, res.ProgramRef)
	}

	// A source that does not compile is a 400 bad_program, and is not
	// cached: nothing to run by reference afterwards.
	bad := "def f(:\n"
	if status, raw := postJSON(t, ts, "/v1/programs", `{"src": "def f(:\n"}`); status != 400 {
		t.Errorf("bad program: status %d, want 400 (%s)", status, raw)
	} else if code := envelopeCode(t, raw); code != api.CodeBadProgram {
		t.Errorf("bad program: code %q, want %q", code, api.CodeBadProgram)
	}
	status, raw := postJSON(t, ts, "/v1/run", `{"programRef": "`+progstore.Ref(bad)+`"}`)
	if status != 404 || envelopeCode(t, raw) != api.CodeUnknownProgram {
		t.Errorf("failed compile left a resolvable ref: status %d, %s", status, raw)
	}

	if status, raw := postJSON(t, ts, "/v1/programs", `{}`); status != 400 {
		t.Errorf("missing src: status %d (%s)", status, raw)
	} else if code := envelopeCode(t, raw); code != api.CodeMissingSrc {
		t.Errorf("missing src: code %q, want %q", code, api.CodeMissingSrc)
	}
	resp, err := http.Get(ts.URL + "/v1/programs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/programs status %d, want 405", resp.StatusCode)
	}
}

// TestRunByRefLifecycle walks the full run-by-reference story: register,
// run by ref (hit, donates a seed), run again (seeded), inspect
// metadata, invalidate, and observe the 404.
func TestRunByRefLifecycle(t *testing.T) {
	ts, _, _ := metricsServer(t, io.Discard)
	reg := registerProgram(t, ts, seedableSrc)

	status, out := postRunV1(t, ts, api.RunRequestV1{ProgramRef: reg.ProgramRef})
	if status != 200 || out.ExitClass != "ok" {
		t.Fatalf("first run-by-ref: %d %s (%s)", status, out.ExitClass, out.Error)
	}
	if out.Stdout != "40200\n" {
		t.Errorf("stdout %q, want \"40200\\n\"", out.Stdout)
	}
	if out.ProgramCache != api.ProgramCacheHit {
		t.Errorf("first run-by-ref programCache %q, want %q", out.ProgramCache, api.ProgramCacheHit)
	}
	if out.ProgramRef != reg.ProgramRef {
		t.Errorf("result programRef %q, want %q", out.ProgramRef, reg.ProgramRef)
	}

	// The clean first run donated its IC seed before the response was
	// written, so the second run starts warm and says so.
	status, out = postRunV1(t, ts, api.RunRequestV1{ProgramRef: reg.ProgramRef})
	if status != 200 || out.ExitClass != "ok" {
		t.Fatalf("second run-by-ref: %d %s (%s)", status, out.ExitClass, out.Error)
	}
	if out.ProgramCache != api.ProgramCacheSeeded {
		t.Errorf("second run-by-ref programCache %q, want %q", out.ProgramCache, api.ProgramCacheSeeded)
	}

	resp, err := http.Get(ts.URL + "/v1/programs/" + reg.ProgramRef)
	if err != nil {
		t.Fatal(err)
	}
	var info api.ProgramInfoV1
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode program info: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET program info status %d", resp.StatusCode)
	}
	if info.ProgramRef != reg.ProgramRef || !info.Compiled {
		t.Errorf("info = %+v: wrong ref or uncompiled", info)
	}
	if info.SrcBytes != len(seedableSrc) {
		t.Errorf("info.SrcBytes = %d, want %d", info.SrcBytes, len(seedableSrc))
	}
	if info.Hits < 2 {
		t.Errorf("info.Hits = %d after two runs-by-ref, want >= 2", info.Hits)
	}
	if !info.ICSeed || info.ICSeedSites == 0 {
		t.Errorf("info = %+v: seed not recorded after a clean run", info)
	}

	// The donated seed is visible in the metrics exposition too.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if strings.Contains(string(mb), "minipy_progstore_seeds_total 0") ||
		!strings.Contains(string(mb), "minipy_progstore_seeds_total") {
		t.Error("minipy_progstore_seeds_total missing or zero after seed donation")
	}

	// Invalidate, then prove the ref is gone everywhere.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/programs/"+reg.ProgramRef, nil)
	dresp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != 200 {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	status, raw := postJSON(t, ts, "/v1/run", `{"programRef": "`+reg.ProgramRef+`"}`)
	if status != 404 || envelopeCode(t, raw) != api.CodeUnknownProgram {
		t.Errorf("run after DELETE: status %d body %s, want 404 unknown_program", status, raw)
	}
	dresp2, err := http.DefaultClient.Do(delReq.Clone(delReq.Context()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp2.Body)
	dresp2.Body.Close()
	if dresp2.StatusCode != 404 {
		t.Errorf("second DELETE status %d, want 404", dresp2.StatusCode)
	}
}

// TestRunInlineProgramCacheStamps: inline v1 sources register
// read-through, so the first run is a store miss, and the run after a
// clean (seed-donating) one reports seeded.
func TestRunInlineProgramCacheStamps(t *testing.T) {
	ts, _ := smokeServer(t)
	status, out := postRunV1(t, ts, api.RunRequestV1{Src: seedableSrc})
	if status != 200 || out.ExitClass != "ok" {
		t.Fatalf("first inline run: %d %s (%s)", status, out.ExitClass, out.Error)
	}
	if out.ProgramCache != api.ProgramCacheMiss {
		t.Errorf("first inline run programCache %q, want %q", out.ProgramCache, api.ProgramCacheMiss)
	}
	if out.ProgramRef != progstore.Ref(seedableSrc) {
		t.Errorf("inline run programRef %q, want content address %q",
			out.ProgramRef, progstore.Ref(seedableSrc))
	}
	status, out = postRunV1(t, ts, api.RunRequestV1{Src: seedableSrc})
	if status != 200 {
		t.Fatalf("second inline run: %d", status)
	}
	if out.ProgramCache != api.ProgramCacheSeeded {
		t.Errorf("second inline run programCache %q, want %q", out.ProgramCache, api.ProgramCacheSeeded)
	}
	// Inline and by-ref resolve to the same entry: the ref from the
	// inline result runs directly.
	status, byRef := postRunV1(t, ts, api.RunRequestV1{ProgramRef: out.ProgramRef})
	if status != 200 || byRef.Stdout != out.Stdout {
		t.Errorf("run-by-ref of the inline ref: status %d stdout %q, want 200 %q",
			status, byRef.Stdout, out.Stdout)
	}

	// A compile error on the inline path must keep its pre-store shape:
	// worker-side compile error, no program stamps.
	status, bad := postRunV1(t, ts, api.RunRequestV1{Src: "def f(:\n"})
	if status != 200 || bad.ExitClass != "error" {
		t.Fatalf("inline compile error: status %d class %s", status, bad.ExitClass)
	}
	if bad.ProgramCache != "" || bad.ProgramRef != "" {
		t.Errorf("compile error stamped program fields: cache %q ref %q", bad.ProgramCache, bad.ProgramRef)
	}
}

// TestHotRefSurvivesInlineChurn: the store evicts least recently used,
// so a ref run between one-shot inline sources outlives them at a
// capacity the inline sources alone would fill.
func TestHotRefSurvivesInlineChurn(t *testing.T) {
	ts, _, _ := dedupServer(t, Options{ProgCap: 4})
	ref := registerProgram(t, ts, "print(6 * 7)\n").ProgramRef
	for i := 0; i < 4; i++ {
		if status, raw := postJSON(t, ts, "/v1/run", fmt.Sprintf(`{"src": "print(%d)\n"}`, i)); status != 200 {
			t.Fatalf("inline run %d: status %d %s", i+1, status, raw)
		}
		if status, raw := postJSON(t, ts, "/v1/run", `{"programRef": "`+ref+`"}`); status != 200 {
			t.Fatalf("by-ref run after %d inline sources: status %d %s", i+1, status, raw)
		}
	}
}

// TestProgstoreOverheadGuard is the performance regression gate for
// run-by-reference: resolving a registered ref (store lookup by content
// hash) must cost at most the benchgate table's p50 overhead versus the
// same program shipped inline (itself a read-through store hit after
// the first request). Best-of-N attempts, each alternating the legs
// request by request and comparing medians, keep scheduler noise from
// flaking the gate; negative overhead trivially passes.
func TestProgstoreOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	gate := benchgate.Lookup("progstore-lookup-overhead")

	ts, _ := smokeServer(t)
	src := "print(7)\n"
	ref := registerProgram(t, ts, src).ProgramRef

	once := func(byRef bool) time.Duration {
		t.Helper()
		rr := api.RunRequestV1{Src: src}
		if byRef {
			rr = api.RunRequestV1{ProgramRef: ref}
		}
		body, _ := json.Marshal(rr)
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (byRef=%v)", resp.StatusCode, byRef)
		}
		return d
	}
	// p50s times n requests on each leg, alternating request by
	// request, so load from a neighbouring process falls on both legs
	// alike.
	p50s := func(n int) (inline, byRef time.Duration) {
		t.Helper()
		a := make([]time.Duration, 0, n)
		b := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			a = append(a, once(false))
			b = append(b, once(true))
		}
		return median(a), median(b)
	}

	p50s(25) // warm the pool, the connections, and the store entry

	const (
		attempts = 3
		reqs     = 200
	)
	best := 1e18
	for attempt := 1; attempt <= attempts; attempt++ {
		inline, byRef := p50s(reqs)
		overhead := (float64(byRef) - float64(inline)) / float64(inline) * 100
		if overhead < best {
			best = overhead
		}
		t.Logf("attempt %d: inline p50 %v, by-ref p50 %v, overhead %+.2f%%", attempt, inline, byRef, overhead)
		if best <= gate.MaxOverheadPct {
			return
		}
	}
	t.Fatalf("run-by-reference p50 overhead %+.2f%%, gate allows at most %.2f%%", best, gate.MaxOverheadPct)
}

// median returns the middle of ds (sorted in place).
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
