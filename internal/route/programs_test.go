package route

// Tests for the router's program-registration plane: fleet-wide
// broadcast, ring affinity shared between inline source and
// run-by-reference, and read-through repair of backends that lost a
// store entry.

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
	"repro/internal/progstore"
	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// TestRefKeyMatchesContentHash pins the routing identity the whole
// design leans on: a program's ref and its inline source hash to the
// same ring key, so by-reference and inline requests for one program
// pin to the same backend.
func TestRefKeyMatchesContentHash(t *testing.T) {
	for _, src := range []string{"print(1)\n", "x = 2\nprint(x)\n", ""} {
		key, ok := RefKey(progstore.Ref(src))
		if !ok {
			t.Fatalf("RefKey rejected a valid ref for %q", src)
		}
		if key != ContentHash(src) {
			t.Errorf("RefKey(Ref(%q)) = %#x, ContentHash = %#x: ring affinity broken",
				src, key, ContentHash(src))
		}
	}
	if _, ok := RefKey("nothex"); ok {
		t.Error("RefKey accepted a malformed ref")
	}
	if _, ok := RefKey(strings.Repeat("g", 64)); ok {
		t.Error("RefKey accepted 64 non-hex characters")
	}
}

// countingBackend is a pyserve replica whose /v1/run hits are counted.
func countingBackend(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{
		Workers:       1,
		Metrics:       supervise.NewMetrics(reg),
		DefaultLimits: testLimits,
	})
	mux := serve.NewWithOptions(pool, reg, serve.Options{DrainTimeout: time.Second}).Mux()
	var runs atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" {
			runs.Add(1)
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); pool.Close() })
	return ts, &runs
}

func registerViaRouter(t *testing.T, frontURL, src string) api.RegisterResultV1 {
	t.Helper()
	body, _ := json.Marshal(api.RegisterRequestV1{Src: src})
	resp, err := http.Post(frontURL+"/v1/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router registration status %d: %s", resp.StatusCode, raw)
	}
	var res api.RegisterResultV1
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode registration: %v", err)
	}
	return res
}

func runByRef(t *testing.T, frontURL, ref string) (*http.Response, map[string]interface{}) {
	t.Helper()
	body, _ := json.Marshal(api.RunRequestV1{ProgramRef: ref})
	resp, err := http.Post(frontURL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode run-by-ref response (status %d): %v", resp.StatusCode, err)
	}
	return resp, out
}

// TestProgramBroadcastAndAffinity: a registration through the router
// resolves on every replica, by-reference runs land on the same backend
// as inline runs of the same source, and the fleet-wide DELETE makes
// the ref unknown again everywhere.
func TestProgramBroadcastAndAffinity(t *testing.T) {
	var urls []string
	var counters []*atomic.Int64
	for i := 0; i < 3; i++ {
		ts, runs := countingBackend(t)
		urls = append(urls, ts.URL)
		counters = append(counters, runs)
	}
	_, front := newRouter(t, Config{Backends: urls, ProbeInterval: quietProbes})

	src := "print(5 * 5)\n"
	reg := registerViaRouter(t, front.URL, src)
	if reg.ProgramRef != progstore.Ref(src) {
		t.Fatalf("router returned ref %q, want %q", reg.ProgramRef, progstore.Ref(src))
	}

	// The broadcast reached every replica: each backend resolves the ref
	// directly, without the router in the path.
	for i, u := range urls {
		resp, err := http.Get(u + "/v1/programs/" + reg.ProgramRef)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("backend %d does not resolve the broadcast ref (status %d)", i, resp.StatusCode)
		}
	}

	// Inline and by-reference traffic for one program share a backend.
	if resp, body := postRun(t, front.URL, src, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("inline run: status %d body %v", resp.StatusCode, body)
	}
	owner := -1
	for i, c := range counters {
		if c.Load() > 0 {
			owner = i
		}
	}
	const refRuns = 8
	for i := 0; i < refRuns; i++ {
		resp, out := runByRef(t, front.URL, reg.ProgramRef)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run-by-ref %d: status %d body %v", i, resp.StatusCode, out)
		}
		if got, _ := out["stdout"].(string); got != "25\n" {
			t.Fatalf("run-by-ref %d stdout %q", i, got)
		}
	}
	for i, c := range counters {
		got := c.Load()
		want := int64(0)
		if i == owner {
			want = refRuns + 1
		}
		if got != want {
			t.Errorf("backend %d saw %d /v1/run hits, want %d (owner=%d): affinity broken",
				i, got, want, owner)
		}
	}

	// GET through the router answers with the owner's metadata.
	resp, err := http.Get(front.URL + "/v1/programs/" + reg.ProgramRef)
	if err != nil {
		t.Fatal(err)
	}
	var info api.ProgramInfoV1
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode info via router: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.ProgramRef != reg.ProgramRef || info.Hits == 0 {
		t.Errorf("router GET info = status %d %+v", resp.StatusCode, info)
	}

	// Fleet-wide invalidation: after the router DELETE, no replica
	// resolves the ref and the router (which forgot the source) passes
	// the owner's 404 through instead of repairing.
	dreq, _ := http.NewRequest(http.MethodDelete, front.URL+"/v1/programs/"+reg.ProgramRef, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("router DELETE status %d", dresp.StatusCode)
	}
	resp2, out := runByRef(t, front.URL, reg.ProgramRef)
	if resp2.StatusCode != http.StatusNotFound || errCode(out) != api.CodeUnknownProgram {
		t.Errorf("run after fleet DELETE: status %d code %q, want 404 unknown_program",
			resp2.StatusCode, errCode(out))
	}
}

// TestProgramReadThroughRepair: a backend that lost a store entry (here
// via a direct DELETE behind the router's back; in production a restart
// or TTL expiry) is transparently re-registered from the router's
// memory and the run succeeds — the client never sees the 404.
func TestProgramReadThroughRepair(t *testing.T) {
	_, back := newServeBackend(t, 1)
	_, front := newRouter(t, Config{Backends: []string{back.URL}, ProbeInterval: quietProbes})

	src := "print(11 * 11)\n"
	reg := registerViaRouter(t, front.URL, src)

	// Knock the entry out directly on the backend.
	dreq, _ := http.NewRequest(http.MethodDelete, back.URL+"/v1/programs/"+reg.ProgramRef, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("direct backend DELETE status %d", dresp.StatusCode)
	}

	// The router recalls the source, re-registers, and the run succeeds.
	for i := 0; i < 3; i++ {
		resp, out := runByRef(t, front.URL, reg.ProgramRef)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run-by-ref after backend lost the entry: status %d body %v (repair failed)",
				resp.StatusCode, out)
		}
		if got, _ := out["stdout"].(string); got != "121\n" {
			t.Fatalf("repaired run %d stdout %q", i, got)
		}
	}
}

// TestProgramMemoryEvictsOneAtCapacity: a registration past the memory's
// capacity evicts the least recently used ref instead of forgetting every
// ref at once, so read-through repair keeps working for the others.
func TestProgramMemoryEvictsOneAtCapacity(t *testing.T) {
	rt, _ := newRouter(t, Config{Backends: []string{"http://127.0.0.1:1"}, ProbeInterval: quietProbes})
	const n = 4097
	src := func(i int) string { return fmt.Sprintf("print(%d)\n", i) }
	for i := 1; i <= n; i++ {
		rt.rememberProgram(progstore.Ref(src(i)), "program.py", src(i))
	}
	if rec, ok := rt.recallProgram(progstore.Ref(src(n - 1))); !ok || rec.src != src(n-1) {
		t.Fatalf("ref %d of %d forgotten (ok=%v): the memory flushed instead of evicting one", n-1, n, ok)
	}
}

// TestProgramRegistrationRejection: a deterministic 4xx from the owner
// (bad source) passes through the router unchanged.
func TestProgramRegistrationRejection(t *testing.T) {
	_, back := newServeBackend(t, 1)
	_, front := newRouter(t, Config{Backends: []string{back.URL}, ProbeInterval: quietProbes})

	body, _ := json.Marshal(api.RegisterRequestV1{Src: "def f(:\n"})
	resp, err := http.Post(front.URL+"/v1/programs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || errCode(out) != api.CodeBadProgram {
		t.Errorf("bad program via router: status %d code %q, want 400 %s",
			resp.StatusCode, errCode(out), api.CodeBadProgram)
	}

	mresp, err := http.Post(front.URL+"/v1/run", "application/json",
		strings.NewReader(fmt.Sprintf(`{"programRef": %q, "src": "print(1)\n"}`, progstore.Ref("print(1)\n"))))
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var menv map[string]interface{}
	if err := json.NewDecoder(mresp.Body).Decode(&menv); err != nil {
		t.Fatal(err)
	}
	if mresp.StatusCode != http.StatusBadRequest || errCode(menv) != api.CodeMissingProgram {
		t.Errorf("src+ref via router: status %d code %q, want 400 %s",
			mresp.StatusCode, errCode(menv), api.CodeMissingProgram)
	}
}
