package supervise

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// metricsPool builds an instrumented exclusive scheduler for telemetry
// tests.
func metricsPool(t *testing.T, workers int) (*Sched, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	pool := NewPool(Config{
		Workers:       workers,
		DefaultLimits: testLimits,
		Metrics:       NewMetrics(reg),
	})
	t.Cleanup(pool.Close)
	return pool, reg
}

func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return buf.String()
}

// TestPoolMetricsEndToEnd drives an instrumented scheduler through clean,
// errored, shed, and breakdown-enabled jobs and checks the scrape: job
// counters by class, latency histograms, occupancy gauges, and the live
// overhead-category attribution accumulator.
func TestPoolMetricsEndToEnd(t *testing.T) {
	pool, reg := metricsPool(t, 2)

	for i := 0; i < 5; i++ {
		if res := pool.Submit(&Job{Name: "ok.py", Src: "print(6 * 7)\n", Mode: runtime.CPython}); res.Class != ClassOK {
			t.Fatalf("ok job: %s %s", res.Class, res.Err)
		}
	}
	if res := pool.Submit(&Job{Name: "err.py", Src: "print(nope)\n", Mode: runtime.CPython}); res.Class != ClassError {
		t.Fatalf("err job: %s", res.Class)
	}
	if res := pool.Submit(&Job{Name: "bd.py", Src: "print(1 + 2)\n", Mode: runtime.CPython, Breakdown: true}); res.Class != ClassOK {
		t.Fatalf("breakdown job: %s %s", res.Class, res.Err)
	}

	out := scrape(t, reg)
	for _, want := range []string{
		`minipy_jobs_total{class="ok"} 6`,
		`minipy_jobs_total{class="error"} 1`,
		`minipy_jobs_total{class="shed"} 0`,
		`minipy_pool_events_total{event="shed"} 0`,
		`minipy_pool_events_total{event="restart"} 0`,
		`minipy_job_run_seconds_count{class="ok"} 6`,
		`minipy_job_queue_wait_seconds_count{class="ok"} 6`,
		"# TYPE minipy_job_run_seconds histogram",
		"# TYPE minipy_sched_running gauge",
		"# TYPE minipy_sched_resident gauge",
		"# TYPE minipy_sched_heap_reserved_bytes gauge",
		"minipy_sched_waiting 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The breakdown job must have charged the live attribution counters:
	// every run dispatches and executes at least something.
	for _, cat := range []string{"execute", "dispatch"} {
		prefix := `minipy_overhead_cycles_total{category="` + cat + `"} `
		idx := strings.Index(out, prefix)
		if idx < 0 {
			t.Fatalf("scrape missing %s counter", cat)
		}
		val := out[idx+len(prefix):]
		if val[:strings.IndexByte(val, '\n')] == "0" {
			t.Errorf("category %s has zero cycles after a breakdown job", cat)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}
}

// TestBreakdownPlumbing: a Breakdown job's result carries the full
// attribution (with correct output), an ordinary job's does not, and the
// two paths use separate warm runners that both stay healthy across
// interleaving.
func TestBreakdownPlumbing(t *testing.T) {
	pool, _ := metricsPool(t, 1)
	for i := 0; i < 3; i++ {
		bd := pool.Submit(&Job{Name: "bd.py", Src: "print(sum(range(10)))\n", Mode: runtime.CPython, Breakdown: true})
		if bd.Class != ClassOK || bd.Output != "45\n" {
			t.Fatalf("breakdown job: %s %q %s", bd.Class, bd.Output, bd.Err)
		}
		if bd.Breakdown == nil || bd.Breakdown.TotalCycles() == 0 || bd.Breakdown.TotalInstrs() == 0 {
			t.Fatalf("breakdown job carries no attribution: %+v", bd.Breakdown)
		}
		if bd.Breakdown.Percent(0) < 0 { // sanity: shares are well-formed
			t.Fatalf("negative share")
		}
		plain := pool.Submit(&Job{Name: "ok.py", Src: "print(6 * 7)\n", Mode: runtime.CPython})
		if plain.Class != ClassOK || plain.Output != "42\n" {
			t.Fatalf("plain job: %s %q", plain.Class, plain.Output)
		}
		if plain.Breakdown != nil {
			t.Fatal("plain job unexpectedly carries a breakdown")
		}
	}
	// A breakdown job in a JIT mode exercises the attributed runner's
	// compiled phases too. Attribution plus the race detector can take
	// it past the pool's 200ms test deadline on a loaded machine; the
	// test checks plumbing, not time, so the job carries its own.
	jit := pool.Submit(&Job{
		Name: "jit.py",
		Src:  "acc = 0\nfor i in xrange(3000):\n    acc = acc + i\nprint(acc)\n",
		Mode: runtime.PyPyJIT, Breakdown: true,
		Limits: interp.Limits{Deadline: 5 * time.Second},
	})
	if jit.Class != ClassOK || jit.Breakdown == nil {
		t.Fatalf("jit breakdown job: %s %s", jit.Class, jit.Err)
	}
	st := pool.Stats()
	if st.Poisoned != 0 || st.Wedged != 0 {
		t.Fatalf("breakdown traffic hurt Runners: %+v", st)
	}
}

// TestMetricsConcurrentScrapes hammers an instrumented scheduler from
// parallel submitters while scraping continuously: the -race gate for
// the scheduler↔telemetry integration.
func TestMetricsConcurrentScrapes(t *testing.T) {
	pool, reg := metricsPool(t, 4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				pool.Submit(&Job{Name: "c.py", Src: "print(1)\n", Mode: runtime.CPython})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Close stop only after the submitters finish; the scraper exits via
	// stop, so wait for submit traffic by polling the counter.
	deadline := time.After(30 * time.Second)
	for {
		st := pool.Stats()
		if st.Submitted >= 100 && st.Idle == st.Workers {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("submitters did not finish: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done

	out := scrape(t, reg)
	if !strings.Contains(out, "minipy_jobs_total{class=") {
		t.Fatalf("scrape missing job counters:\n%s", out)
	}
}

// TestWatchdogSurvivesExtremeDeadlines is the deadline-overflow
// regression: per-job deadlines that are huge (the multiply in the
// watchdog derivation would overflow) or negative (bypassing the "zero
// means default" inheritance) must not produce an already-expired
// watchdog that condemns a healthy job.
func TestWatchdogSurvivesExtremeDeadlines(t *testing.T) {
	pool := NewPool(Config{Workers: 1, DefaultLimits: testLimits})
	defer pool.Close()

	for _, tc := range []struct {
		name     string
		deadline time.Duration
	}{
		{"overflowing multiply", time.Duration(math.MaxInt64)},
		{"near-max", time.Duration(math.MaxInt64 - 1)},
		{"negative", -time.Second},
		{"tiny", time.Nanosecond},
	} {
		job := &Job{
			Name:   "wd.py",
			Src:    "print(6 * 7)\n",
			Mode:   runtime.CPython,
			Limits: interp.Limits{Deadline: tc.deadline},
		}
		// The derived watchdog must be strictly positive and generous.
		if wd := pool.jobWatchdog(pool.effectiveLimits(job)); wd <= 0 {
			t.Fatalf("%s: watchdog %v not positive", tc.name, wd)
		}
		res := pool.Submit(job)
		if tc.deadline == time.Nanosecond {
			// A 1ns deadline is legitimate and trips instantly — but as
			// a classified timeout, not a wedge.
			if res.Class != ClassOK && res.Class != ClassTimeout {
				t.Fatalf("%s: class %s (%s)", tc.name, res.Class, res.Err)
			}
			continue
		}
		if res.Class != ClassOK || res.Output != "42\n" {
			t.Fatalf("%s: class %s output %q (%s)", tc.name, res.Class, res.Output, res.Err)
		}
	}

	st := pool.Stats()
	if st.Wedged != 0 || st.Poisoned != 0 || st.Restarts != 0 {
		t.Fatalf("extreme deadlines condemned Runners: %+v", st)
	}
	waitStats(t, pool, "slot released", func(s Stats) bool { return s.Idle == 1 })
}

// TestEffectiveLimitsDefendNonPositive: non-positive per-job deadline
// and recursion depth fall back to the defaults.
func TestEffectiveLimitsDefendNonPositive(t *testing.T) {
	pool := NewPool(Config{Workers: 1, DefaultLimits: testLimits})
	defer pool.Close()
	l := pool.effectiveLimits(&Job{Limits: interp.Limits{
		Deadline:          -5 * time.Second,
		MaxRecursionDepth: -3,
	}})
	if l.Deadline != testLimits.Deadline {
		t.Fatalf("negative deadline resolved to %v, want default %v", l.Deadline, testLimits.Deadline)
	}
	if l.MaxRecursionDepth != testLimits.MaxRecursionDepth {
		t.Fatalf("negative recursion depth resolved to %d, want default %d",
			l.MaxRecursionDepth, testLimits.MaxRecursionDepth)
	}
}

// TestFireFaultUnfaultedPool is the nil-injector regression: probing any
// fault kind on a scheduler with no injector configured must be a safe
// no-op (and must not touch the mutex — every job probes it at start).
func TestFireFaultUnfaultedPool(t *testing.T) {
	pool := NewPool(Config{Workers: 1, DefaultLimits: testLimits})
	defer pool.Close()
	for k := faults.Kind(0); k < faults.NumKinds; k++ {
		if pool.fireFault(k) {
			t.Fatalf("unfaulted scheduler fired %s", k)
		}
	}
	// And a full job exercises the in-tree probe site (job start wedge).
	if res := pool.Submit(&Job{Name: "f.py", Src: "print(1)\n", Mode: runtime.CPython}); res.Class != ClassOK {
		t.Fatalf("job on unfaulted scheduler: %s %s", res.Class, res.Err)
	}
}
