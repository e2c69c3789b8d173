package route

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/benchgate"
)

// TestDedupOverheadGuard is the performance regression gate for the
// exactly-once layer: stamping every routed request with an idempotency
// key (digest computation, dedup-cache consult and record on the
// backend) must cost at most the p50 overhead the shared benchgate
// table allows versus the same traffic without keys. Best-of-N
// attempts, each alternating the legs request by request and comparing
// medians, keep scheduler noise from flaking the gate; a negative
// overhead (keyed leg faster) trivially passes.
func TestDedupOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	gate := benchgate.Lookup("router-dedup-overhead")

	_, back := newServeBackend(t, 2)
	_, front := newRouter(t, Config{Backends: []string{back.URL}, ProbeInterval: quietProbes})
	src := "print(7)\n"

	var keySeq int
	once := func(keyed bool) time.Duration {
		t.Helper()
		rr := api.RunRequestV1{Src: src}
		if keyed {
			keySeq++
			rr.IdempotencyKey = fmt.Sprintf("ovh-%d", keySeq)
		}
		body, _ := json.Marshal(rr)
		start := time.Now()
		resp, err := http.Post(front.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (keyed=%v)", resp.StatusCode, keyed)
		}
		return d
	}
	// p50s times n requests on each leg, alternating request by
	// request, so load from a neighbouring process falls on both legs
	// alike.
	p50s := func(n int) (plain, keyed time.Duration) {
		t.Helper()
		a := make([]time.Duration, 0, n)
		b := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			a = append(a, once(false))
			b = append(b, once(true))
		}
		return median(a), median(b)
	}

	p50s(25) // warm the pool, the connections, and the caches

	const (
		attempts = 3
		reqs     = 200
	)
	best := 1e18
	for attempt := 1; attempt <= attempts; attempt++ {
		plain, keyed := p50s(reqs)
		overhead := (float64(keyed) - float64(plain)) / float64(plain) * 100
		if overhead < best {
			best = overhead
		}
		t.Logf("attempt %d: plain p50 %v, keyed p50 %v, overhead %+.2f%%", attempt, plain, keyed, overhead)
		if best <= gate.MaxOverheadPct {
			return
		}
	}
	t.Fatalf("dedup-enabled p50 overhead %+.2f%%, gate allows at most %.2f%%", best, gate.MaxOverheadPct)
}

// median returns the middle of ds (sorted in place).
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
