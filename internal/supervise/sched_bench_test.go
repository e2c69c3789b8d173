package supervise

import (
	"sort"
	"testing"
	"time"

	"repro/internal/benchgate"
	"repro/internal/runtime"
)

// TestSchedOverheadGuard is the performance regression gate for the
// step-sliced scheduler's single-job path: with no contention (one job
// at a time, zero waiters), the yield fast path must reduce to one
// heartbeat store and two atomic loads, so a job sliced at the default
// quantum costs at most the p50 overhead the shared benchgate table
// allows versus the same job in the exclusive configuration (which never
// reaches a yield point). Best-of-N attempts, each alternating the legs
// job by job and comparing medians, keep scheduler noise from flaking
// the gate; a negative overhead trivially passes.
func TestSchedOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	gate := benchgate.Lookup("sched-overhead")

	limits := schedTestLimits()
	pool := NewPool(Config{Workers: 1, DefaultLimits: limits})
	defer pool.Close()
	sched := NewSched(SchedConfig{Slots: 1, DefaultLimits: limits})
	defer sched.Close()

	// Big enough that execution dominates submit bookkeeping, small
	// enough that 2x3x60 of them finish quickly; the default quantum
	// crosses several yield boundaries per job.
	src := loopSrc(100_000)
	submit := func(s interface {
		Submit(*Job) *JobResult
	}) time.Duration {
		t.Helper()
		start := time.Now()
		res := s.Submit(&Job{Name: "ovh.py", Src: src, Mode: runtime.CPython})
		d := time.Since(start)
		if res.Class != ClassOK {
			t.Fatalf("job failed: %s %q", res.Class, res.Err)
		}
		return d
	}
	// p50s times n jobs on each leg, alternating job by job, so load from
	// a neighbouring process falls on both legs alike.
	p50s := func(n int) (exclusive, sliced time.Duration) {
		t.Helper()
		a := make([]time.Duration, 0, n)
		b := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			a = append(a, submit(pool))
			b = append(b, submit(sched))
		}
		return median(a), median(b)
	}

	p50s(5) // warm both schedulers' runners

	const (
		attempts = 3
		jobs     = 30
	)
	best := 1e18
	for attempt := 1; attempt <= attempts; attempt++ {
		exclusive, sliced := p50s(jobs)
		overhead := (float64(sliced) - float64(exclusive)) / float64(exclusive) * 100
		if overhead < best {
			best = overhead
		}
		t.Logf("attempt %d: exclusive p50 %v, sliced p50 %v, overhead %+.2f%%", attempt, exclusive, sliced, overhead)
		if best <= gate.MaxOverheadPct {
			return
		}
	}
	t.Fatalf("step-sliced single-job p50 overhead %+.2f%%, gate allows at most %.2f%%", best, gate.MaxOverheadPct)
}

// median returns the middle of ds (sorted in place).
func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
