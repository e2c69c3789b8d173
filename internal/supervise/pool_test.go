package supervise

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/pycode"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// testLimits keeps exclusive-configuration tests fast: short deadlines
// shrink the wedge watchdog, and generous functional budgets keep honest
// programs clean.
var testLimits = interp.Limits{
	MaxSteps:     5_000_000,
	MaxHeapBytes: 64 << 20,
	Deadline:     200 * time.Millisecond,
}

func testPool(t *testing.T, cfg Config) *Sched {
	t.Helper()
	if cfg.DefaultLimits == (interp.Limits{}) {
		cfg.DefaultLimits = testLimits
	}
	if cfg.WedgeSlack == 0 {
		cfg.WedgeSlack = 50 * time.Millisecond
	}
	p := NewPool(cfg)
	t.Cleanup(p.Close)
	return p
}

// waitStats polls the scheduler until pred holds or the deadline passes.
func waitStats(t *testing.T, p *Sched, what string, pred func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := p.Stats()
		if pred(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats %+v", what, s)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// badCode is a hand-built invalid program: BINARY_ADD against an empty
// value stack, which no compiler output can contain. Executing it must
// surface as an InternalError, not a host crash.
func badCode() *pycode.Code {
	return &pycode.Code{
		Name:      "<module>",
		Filename:  "bad.py",
		Code:      []pycode.Instr{{Op: pycode.BINARY_ADD}},
		Lines:     []int32{1},
		StackSize: 4,
		IsModule:  true,
	}
}

// TestPoolRunsAllModes: one exclusive scheduler serves correct results in
// every runtime mode, twice per mode to exercise the warm-reuse path.
func TestPoolRunsAllModes(t *testing.T) {
	p := testPool(t, Config{Workers: 2})
	const src = "total = 0\nfor i in range(100):\n    total = total + i\nprint(total)\n"
	for round := 0; round < 2; round++ {
		for m := runtime.Mode(0); m < runtime.NumModes; m++ {
			res := p.Submit(&Job{Name: "sum.py", Src: src, Mode: m})
			if res.Class != ClassOK {
				t.Fatalf("round %d %v: class %s err %q", round, m, res.Class, res.Err)
			}
			if res.Output != "4950\n" {
				t.Fatalf("round %d %v: output %q", round, m, res.Output)
			}
			if res.Bytecodes == 0 {
				t.Fatalf("round %d %v: no bytecode count reported", round, m)
			}
		}
	}
	if s := p.Stats(); s.Poisoned != 0 || s.Wedged != 0 {
		t.Fatalf("healthy workload poisoned/wedged Runners: %+v", s)
	}
}

// TestPoolConcurrentSubmitters: many goroutines share the exclusive
// scheduler; every job gets its own uncontaminated output.
func TestPoolConcurrentSubmitters(t *testing.T) {
	p := testPool(t, Config{Workers: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := fmt.Sprintf("print(%d * 1000 + %d)\n", g, g)
			want := fmt.Sprintf("%d\n", g*1000+g)
			res := p.Submit(&Job{
				Name: fmt.Sprintf("g%d.py", g),
				Src:  src,
				Mode: runtime.Mode(g % int(runtime.NumModes)),
			})
			if res.Class != ClassOK {
				errs <- fmt.Sprintf("g%d: class %s err %q", g, res.Class, res.Err)
				return
			}
			if res.Output != want {
				errs <- fmt.Sprintf("g%d: output %q, want %q (cross-contamination?)",
					g, res.Output, want)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestInternalErrorPoisonsWorker: a job that dies of an InternalError is
// classified, its Runner is dropped (an unplanned retirement), and the
// next job runs on a fresh Runner.
func TestInternalErrorPoisonsWorker(t *testing.T) {
	p := testPool(t, Config{Workers: 1})
	res := p.Submit(&Job{Name: "bad.py", Code: badCode(), Mode: runtime.CPython})
	if res.Class != ClassInternal {
		t.Fatalf("want ClassInternal, got %s (%q)", res.Class, res.Err)
	}
	if res.Class.ExitCode() != 3 {
		t.Fatalf("internal exit code %d, want 3", res.Class.ExitCode())
	}
	s := waitStats(t, p, "poisoned Runner dropped", func(s Stats) bool {
		return s.Poisoned == 1 && s.Idle == 1
	})
	if s.Restarts == 0 {
		t.Fatalf("poisoning not counted as restart: %+v", s)
	}
	// The fresh Runner must serve correct results.
	ok := p.Submit(&Job{Name: "ok.py", Src: "print(6 * 7)\n", Mode: runtime.CPython})
	if ok.Class != ClassOK || ok.Output != "42\n" {
		t.Fatalf("broken after poisoning: class %s output %q err %q",
			ok.Class, ok.Output, ok.Err)
	}
	if res.Worker < 0 || ok.Worker == res.Worker {
		t.Fatalf("poisoned Runner %d served another job (%d)", res.Worker, ok.Worker)
	}
}

// TestWedgeCondemnedAndReplaced: an injected WorkerWedge stalls a job
// past the watchdog; the submitter gets ClassWedged, the slot is freed at
// once, and the next job runs on a fresh Runner.
func TestWedgeCondemnedAndReplaced(t *testing.T) {
	fc := faults.Config{}
	fc.EveryN[faults.WorkerWedge] = 3 // third job wedges
	p := testPool(t, Config{Workers: 1, Faults: faults.New(fc),
		DefaultLimits: interp.Limits{MaxSteps: 5_000_000, Deadline: 50 * time.Millisecond}})
	const src = "print(1 + 1)\n"
	for i := 1; i <= 2; i++ {
		if res := p.Submit(&Job{Name: "a.py", Src: src, Mode: runtime.CPython}); res.Class != ClassOK {
			t.Fatalf("job %d: class %s err %q", i, res.Class, res.Err)
		}
	}
	res := p.Submit(&Job{Name: "a.py", Src: src, Mode: runtime.CPython})
	if res.Class != ClassWedged {
		t.Fatalf("want ClassWedged, got %s (%q)", res.Class, res.Err)
	}
	waitStats(t, p, "wedged slot freed", func(s Stats) bool {
		return s.Wedged == 1 && s.Restarts == 1 && s.Idle == 1
	})
	if after := p.Submit(&Job{Name: "a.py", Src: src, Mode: runtime.CPython}); after.Class != ClassOK {
		t.Fatalf("broken after wedge: class %s err %q", after.Class, after.Err)
	}
}

// TestRecycleIsPlannedReplacement: the job-count recycle policy retires
// Runners without counting them as unplanned restarts, and a recycled
// Runner never serves again.
func TestRecycleIsPlannedReplacement(t *testing.T) {
	p := testPool(t, Config{Workers: 1, RecycleAfter: 1})
	var lastWorker = -1
	for i := 0; i < 3; i++ {
		res := p.Submit(&Job{Name: "a.py", Src: "print(7)\n", Mode: runtime.CPython})
		if res.Class != ClassOK {
			t.Fatalf("job %d: class %s err %q", i, res.Class, res.Err)
		}
		if res.Worker < 0 || res.Worker == lastWorker {
			t.Fatalf("job %d ran on recycled Runner %d", i, res.Worker)
		}
		lastWorker = res.Worker
		waitStats(t, p, "recycle", func(s Stats) bool { return s.Recycled == uint64(i+1) })
	}
	s := p.Stats()
	if s.Restarts != 0 {
		t.Fatalf("planned recycles counted as restarts: %+v", s)
	}
}

// TestAdmissionShedsAtQueueDepth: with the slot occupied and the queue
// full, further submissions are rejected with a retry hint.
func TestAdmissionShedsAtQueueDepth(t *testing.T) {
	p := testPool(t, Config{Workers: 1, QueueDepth: 1})
	slow := &Job{Name: "slow.py", Mode: runtime.CPython,
		Src:    "i = 0\nwhile True:\n    i = i + 1\n",
		Limits: interp.Limits{MaxSteps: 1 << 40, Deadline: 400 * time.Millisecond}}
	done := make(chan *JobResult, 2)
	go func() { done <- p.Submit(slow) }()
	// Wait until the slow job occupies the slot, then fill the queue.
	waitStats(t, p, "slot busy", func(s Stats) bool { return s.Idle == 0 && s.Workers == 1 })
	go func() { done <- p.Submit(slow) }()
	waitStats(t, p, "queue full", func(s Stats) bool { return s.Queued == 1 })

	shed := p.Submit(&Job{Name: "x.py", Src: "print(1)\n", Mode: runtime.CPython})
	if shed.Class != ClassShed {
		t.Fatalf("want ClassShed at full queue, got %s (%q)", shed.Class, shed.Err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatal("shed result missing RetryAfter hint")
	}
	for i := 0; i < 2; i++ {
		if res := <-done; res.Class != ClassTimeout {
			t.Fatalf("slow job %d: want ClassTimeout, got %s (%q)", i, res.Class, res.Err)
		}
	}
}

// TestHeapWatermarkSheds: a job whose heap reservation exceeds the
// watermark is rejected outright.
func TestHeapWatermarkSheds(t *testing.T) {
	p := testPool(t, Config{Workers: 1, HeapWatermark: 1 << 20})
	res := p.Submit(&Job{Name: "big.py", Src: "print(1)\n", Mode: runtime.CPython,
		Limits: interp.Limits{MaxHeapBytes: 2 << 20}})
	if res.Class != ClassShed {
		t.Fatalf("want ClassShed over heap watermark, got %s (%q)", res.Class, res.Err)
	}
	// A job under the watermark still runs.
	ok := p.Submit(&Job{Name: "ok.py", Src: "print(1)\n", Mode: runtime.CPython,
		Limits: interp.Limits{MaxHeapBytes: 1 << 19}})
	if ok.Class != ClassOK {
		t.Fatalf("under-watermark job: class %s err %q", ok.Class, ok.Err)
	}
}

// TestDrainWaitsForInFlight: Drain lets the running job finish, then
// rejects new work.
func TestDrainWaitsForInFlight(t *testing.T) {
	p := testPool(t, Config{Workers: 1})
	done := make(chan *JobResult, 1)
	go func() {
		done <- p.Submit(&Job{Name: "slow.py", Mode: runtime.CPython,
			Src:    "total = 0\nfor i in range(100000):\n    total = total + 1\nprint(total)\n",
			Limits: interp.Limits{MaxSteps: 1 << 40, Deadline: 30 * time.Second}})
	}()
	waitStats(t, p, "slot busy", func(s Stats) bool { return s.Idle == 0 })
	if !p.Drain(60 * time.Second) {
		t.Fatal("Drain timed out with one healthy in-flight job")
	}
	res := <-done
	if res.Class != ClassOK || res.Output != "100000\n" {
		t.Fatalf("in-flight job during drain: class %s output %q err %q",
			res.Class, res.Output, res.Err)
	}
	if after := p.Submit(&Job{Name: "x.py", Src: "print(1)\n", Mode: runtime.CPython}); after.Class != ClassShed {
		t.Fatalf("post-drain submit: want ClassShed, got %s", after.Class)
	}
}

// TestClassRoundTrip: every class renders a distinct wire name that
// parses back, and the exit codes honor the pyrun contract.
func TestClassRoundTrip(t *testing.T) {
	wantExit := [NumClasses]int{0, 1, 3, 4, 5, 6, 7, 8, 9}
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		name := c.String()
		if seen[name] {
			t.Fatalf("duplicate class name %q", name)
		}
		seen[name] = true
		back, err := ParseClass(name)
		if err != nil || back != c {
			t.Fatalf("round trip %q: got %v, %v", name, back, err)
		}
		if c.ExitCode() != wantExit[c] {
			t.Fatalf("%s: exit code %d, want %d", name, c.ExitCode(), wantExit[c])
		}
	}
	if _, err := ParseClass("no-such-class"); err == nil {
		t.Fatal("ParseClass accepted garbage")
	}
}

// soakExclusive submits jobs generated programs, round-robin across the
// runtime modes, to p and checks the supervision contract per job: every
// result is a well-formed class, a shed carries a retry hint, and an
// executed result matches a fresh unsupervised reference run (wall-clock
// deadline trips excepted: they are timing noise, not contamination).
func soakExclusive(t *testing.T, p *Sched, seed uint64, jobs int, lim interp.Limits) {
	t.Helper()
	for i := 0; i < jobs; i++ {
		progSeed := seed + uint64(i%97)
		mode := runtime.Mode(i % int(runtime.NumModes))
		src := difftest.Generate(progSeed)
		name := fmt.Sprintf("soak-%d.py", progSeed)
		got := p.Submit(&Job{Name: name, Src: src, Mode: mode})
		if got.Class >= NumClasses || (got.Class == ClassOK) != (got.Err == "") {
			t.Fatalf("job %d: malformed result class %s err %q", i, got.Class, got.Err)
		}
		if got.Class == ClassShed || got.Class == ClassWedged {
			if got.Class == ClassShed && got.RetryAfter <= 0 {
				t.Fatalf("job %d: shed without RetryAfter hint", i)
			}
			continue
		}
		want := ReferenceRun(name, src, mode, lim)
		if strings.Contains(got.Err, "deadline") || strings.Contains(want.Err, "deadline") {
			continue
		}
		if got.Class != want.Class || got.Err != want.Err || got.Output != want.Output {
			t.Fatalf("job %d (%s, %s): got %s %q %q, reference %s %q %q", i, name, mode,
				got.Class, got.Err, clip(got.Output), want.Class, want.Err, clip(want.Output))
		}
	}
}

// soakLimits: the deterministic step budget decides outcomes; the
// deadline is a backstop short enough that injected wedges resolve fast.
var soakLimits = interp.Limits{
	MaxSteps:     2_000_000,
	MaxHeapBytes: 64 << 20,
	Deadline:     200 * time.Millisecond,
}

// TestSoakCleanPool: the exclusive configuration with no supervision
// faults armed is a pure conformance run — no Runner lost.
func TestSoakCleanPool(t *testing.T) {
	p := testPool(t, Config{Workers: 2, DefaultLimits: soakLimits})
	soakExclusive(t, p, 1, 60, soakLimits)
	if st := p.Stats(); st.Poisoned != 0 || st.Wedged != 0 || st.Restarts != 0 {
		t.Fatalf("clean soak lost Runners: %+v", st)
	}
}

// TestSoakUnderSupervisionFaults: injected wedges may cost latency and
// Runners, but never the scheduler, never another job's output, never a
// malformed class.
func TestSoakUnderSupervisionFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	fc := faults.Config{Seed: 7}
	fc.EveryN[faults.WorkerWedge] = 40
	p := testPool(t, Config{Workers: 3, DefaultLimits: soakLimits, Faults: faults.New(fc)})
	soakExclusive(t, p, 7, 120, soakLimits)
	if st := p.Stats(); st.Wedged == 0 {
		t.Fatalf("fault schedule never fired; soak proves nothing: %+v", st)
	}
}

// TestCondemnWakesBlockedSubmitters: a Submit queued behind a job that
// wedges the only slot is served as soon as the wedge verdict lands —
// the verdict frees the slot and its residency, and the next grant builds
// a fresh Runner — not when the zombie finally returns.
func TestCondemnWakesBlockedSubmitters(t *testing.T) {
	fc := faults.Config{}
	fc.EveryN[faults.WorkerWedge] = 2 // the second job wedges
	p := testPool(t, Config{Workers: 1, Faults: faults.New(fc), WedgeSlack: time.Second,
		DefaultLimits: interp.Limits{MaxSteps: 5_000_000, Deadline: 50 * time.Millisecond}})
	const src = "print(1)\n"
	if res := p.Submit(&Job{Name: "warm.py", Src: src, Mode: runtime.CPython}); res.Class != ClassOK {
		t.Fatalf("warm-up: %s %q", res.Class, res.Err)
	}

	first := make(chan *JobResult, 1)
	go func() {
		first <- p.Submit(&Job{Name: "a.py", Src: src, Mode: runtime.CPython})
	}()
	waitStats(t, p, "wedging job granted", func(s Stats) bool {
		return s.Submitted == 2 && s.Idle == 0 && s.Queued == 0
	})
	start := time.Now()
	res := p.Submit(&Job{Name: "b.py", Src: src, Mode: runtime.CPython})
	blocked := time.Since(start)
	if res.Class != ClassOK || res.Output != "1\n" {
		t.Fatalf("blocked submitter: class %s output %q err %q", res.Class, res.Output, res.Err)
	}
	// The watchdog is 1.1s (50ms*2 + 1s slack) and the zombie sleeps a
	// further 1s past it. Prompt service means the verdict released the
	// slot, not the zombie's return.
	if blocked > 1600*time.Millisecond {
		t.Fatalf("blocked submitter served after %v; the verdict did not release the slot", blocked)
	}
	if r := <-first; r.Class != ClassWedged {
		t.Fatalf("wedged job: want ClassWedged, got %s (%q)", r.Class, r.Err)
	}
}

// TestShedAfterWaitRecordsQueueWait is the regression test for the
// invisible-shed-wait bug: a job shed after queueing (here: drain arrived
// while it was queued behind a busy slot) must carry the wait it
// accumulated, and that wait must reach
// minipy_job_queue_wait_seconds{class="shed"} — otherwise backpressure
// latency is invisible exactly when the scheduler is saturated.
func TestShedAfterWaitRecordsQueueWait(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	p := testPool(t, Config{Workers: 1, QueueDepth: 2, Metrics: m,
		DefaultLimits: interp.Limits{
			MaxSteps: 1 << 30, MaxHeapBytes: 64 << 20, Deadline: 30 * time.Second,
		}})
	slow := &Job{Name: "slow.py", Mode: runtime.CPython,
		Src: "total = 0\nfor i in range(500000):\n    total = total + 1\nprint(total)\n"}
	first := make(chan *JobResult, 1)
	go func() { first <- p.Submit(slow) }()
	waitStats(t, p, "slot busy", func(s Stats) bool { return s.Idle == 0 })

	queued := make(chan *JobResult, 1)
	go func() { queued <- p.Submit(&Job{Name: "q.py", Src: "print(1)\n", Mode: runtime.CPython}) }()
	waitStats(t, p, "job queued", func(s Stats) bool { return s.Queued == 1 })
	time.Sleep(20 * time.Millisecond) // let it accumulate measurable wait

	go p.Drain(10 * time.Second)
	res := <-queued
	if res.Class != ClassShed {
		t.Fatalf("want shed on drain, got %s (%q)", res.Class, res.Err)
	}
	if res.Queued < 10*time.Millisecond {
		t.Fatalf("shed-after-wait result lost its queue wait: Queued = %v", res.Queued)
	}
	snap := m.queueWait.Snapshot(int(ClassShed))
	if snap.Count == 0 || time.Duration(snap.Sum) < 10*time.Millisecond {
		t.Fatalf("shed queue wait invisible in telemetry: count=%d sum=%v", snap.Count, snap.Sum)
	}
	if r := <-first; r.Class != ClassOK {
		t.Fatalf("in-flight job through drain: %s (%q)", r.Class, r.Err)
	}
}

// clip bounds an output string for failure messages.
func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}
