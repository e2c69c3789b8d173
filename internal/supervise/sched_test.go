package supervise

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/runtime"
	"repro/internal/telemetry"
)

// schedTestLimits: deterministic step budget decides outcomes; generous
// deadline keeps wall-clock trips out of the assertions.
func schedTestLimits() interp.Limits {
	return interp.Limits{
		MaxSteps:     50_000_000,
		MaxHeapBytes: 64 << 20,
		Deadline:     30 * time.Second,
	}
}

// loopSrc builds a program that runs ~n loop iterations then prints its
// accumulator — enough steps to cross many quantum boundaries.
func loopSrc(n int) string {
	return fmt.Sprintf("acc = 0\nfor i in xrange(%d):\n    acc = acc + i\nprint(acc)\n", n)
}

func loopSum(n int) string {
	s := uint64(n) * uint64(n-1) / 2
	return fmt.Sprintf("%d\n", s)
}

func TestSchedSingleJob(t *testing.T) {
	s := NewSched(SchedConfig{Slots: 2, QuantumSteps: 64, DefaultLimits: schedTestLimits()})
	defer s.Close()
	res := s.Submit(&Job{Name: "one.py", Src: loopSrc(1000), Mode: runtime.CPython})
	if res.Class != ClassOK {
		t.Fatalf("class %s err %q", res.Class, res.Err)
	}
	if res.Output != loopSum(1000) {
		t.Fatalf("output %q", res.Output)
	}
	// A lone job on an idle scheduler never gets preempted (the yield
	// fast path sees no waiters) and its lifecycle is the minimal
	// queued→scheduled→running→finished journey.
	if res.Preemptions != 0 {
		t.Fatalf("lone job preempted %d times", res.Preemptions)
	}
	want := []LifeState{LifeQueued, LifeScheduled, LifeRunning, LifeFinished}
	if len(res.Lifecycle) != len(want) {
		t.Fatalf("lifecycle %v", res.Lifecycle)
	}
	for i, ev := range res.Lifecycle {
		if ev.State != want[i] {
			t.Fatalf("lifecycle[%d] = %s, want %s", i, ev.State, want[i])
		}
		if ev.At.IsZero() {
			t.Fatalf("lifecycle[%d] missing timestamp", i)
		}
	}
}

// TestSchedInterleavesManyJobsPerSlot is the acceptance bar: with W
// slots, the scheduler sustains >= 4x W in-flight jobs on a mixed
// long/short workload — every one completes correctly, long jobs are
// preempted (interleaved) rather than owning a slot for their lifetime,
// and short jobs are not head-of-line blocked behind long ones.
func TestSchedInterleavesManyJobsPerSlot(t *testing.T) {
	const slots = 2
	const inflight = 5 * slots // > 4x per slot
	s := NewSched(SchedConfig{
		Slots:         slots,
		QuantumSteps:  2_000,
		MaxResident:   inflight, // all jobs resident: pure interleaving
		DefaultLimits: schedTestLimits(),
	})
	defer s.Close()

	type outcome struct {
		idx int
		res *JobResult
	}
	results := make(chan outcome, inflight)
	var wg sync.WaitGroup
	longN, shortN := 300_000, 2_000
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := longN
			if i%2 == 1 {
				n = shortN
			}
			res := s.Submit(&Job{
				Name: fmt.Sprintf("mix-%d.py", i),
				Src:  loopSrc(n),
				Mode: runtime.CPython,
			})
			results <- outcome{i, res}
		}(i)
	}
	wg.Wait()
	close(results)

	var firstShort, lastLong time.Time
	for o := range results {
		if o.res.Class != ClassOK {
			t.Fatalf("job %d: class %s err %q", o.idx, o.res.Class, o.res.Err)
		}
		n := longN
		if o.idx%2 == 1 {
			n = shortN
		}
		if o.res.Output != loopSum(n) {
			t.Fatalf("job %d: output %q", o.idx, o.res.Output)
		}
		fin := o.res.Lifecycle[len(o.res.Lifecycle)-1].At
		if o.idx%2 == 1 {
			if firstShort.IsZero() || fin.Before(firstShort) {
				firstShort = fin
			}
		} else if fin.After(lastLong) {
			lastLong = fin
		}
	}
	st := s.Stats()
	if st.Preempted == 0 {
		t.Fatal("mixed workload with more jobs than slots ran with zero preemptions")
	}
	// No head-of-line blocking: with 5x oversubscription of long jobs,
	// the earliest short job must beat the last long job out the door.
	if !firstShort.Before(lastLong) {
		t.Fatalf("short jobs head-of-line blocked: first short %v, last long %v", firstShort, lastLong)
	}
}

// TestSchedResidencyBound: MaxResident caps live VMs however many jobs
// queue; everything still completes.
func TestSchedResidencyBound(t *testing.T) {
	s := NewSched(SchedConfig{
		Slots:         2,
		QuantumSteps:  2_000,
		MaxResident:   3,
		DefaultLimits: schedTestLimits(),
	})
	defer s.Close()
	const jobs = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	maxResident := 0
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			mu.Lock()
			if st.Resident > maxResident {
				maxResident = st.Resident
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()
	errs := make(chan string, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := s.Submit(&Job{Name: "r.py", Src: loopSrc(50_000), Mode: runtime.CPython})
			if res.Class != ClassOK {
				errs <- fmt.Sprintf("job %d: %s %q", i, res.Class, res.Err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if maxResident > 3 {
		t.Fatalf("residency bound violated: observed %d > 3", maxResident)
	}
}

// TestSchedPriorityLanes: under a saturated scheduler, lane-0 jobs are
// granted ahead of queued lane-1 jobs.
func TestSchedPriorityLanes(t *testing.T) {
	s := NewSched(SchedConfig{
		Slots:         1,
		Lanes:         2,
		QuantumSteps:  2_000,
		DefaultLimits: schedTestLimits(),
	})
	defer s.Close()

	var mu sync.Mutex
	var order []int // lane of each completion
	var wg sync.WaitGroup
	run := func(lane int) {
		defer wg.Done()
		res := s.Submit(&Job{Name: "lane.py", Src: loopSrc(60_000), Mode: runtime.CPython, Lane: lane})
		if res.Class != ClassOK {
			t.Errorf("lane %d: %s %q", lane, res.Class, res.Err)
			return
		}
		mu.Lock()
		order = append(order, lane)
		mu.Unlock()
	}
	// Occupy the slot, then queue background and priority work behind it.
	wg.Add(1)
	go run(1)
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go run(1)
	}
	time.Sleep(10 * time.Millisecond)
	wg.Add(1)
	go run(0)
	wg.Wait()

	// The lane-0 job arrived last but must not finish last: strict
	// priority grants it every slice ahead of the queued lane-1 backlog.
	if order[len(order)-1] == 0 {
		t.Fatalf("priority job finished last: completion lanes %v", order)
	}
}

// TestSchedReclaimsSlotAtArrival: a lane-0 job arriving while a lane-1
// job holds the only slot runs at the lane-1 job's next preemption
// check, not at the end of its quantum — here longer than the whole job,
// so without the reclaim the lane-0 job would wait for it to finish. A
// lane-1 arrival reclaims nothing.
func TestSchedReclaimsSlotAtArrival(t *testing.T) {
	s := NewSched(SchedConfig{
		Slots:         1,
		Lanes:         2,
		QuantumSteps:  1 << 40,
		DefaultLimits: schedTestLimits(),
	})
	defer s.Close()

	const bgN, fgN = 300_000, 1_000
	bg := make(chan *JobResult, 2)
	submitBg := func() {
		bg <- s.Submit(&Job{Name: "bg.py", Src: loopSrc(bgN), Mode: runtime.CPython, Lane: 1})
	}
	go submitBg()
	waitStats(t, s, "lane-1 job granted", func(st Stats) bool { return st.Idle == 0 })
	go submitBg()
	waitStats(t, s, "lane-1 job queued", func(st Stats) bool { return st.Queued == 1 })
	if st := s.Stats(); st.Reclaimed != 0 {
		t.Fatalf("a lane-1 arrival reclaimed the slot from a lane-1 job: %+v", st)
	}

	fg := s.Submit(&Job{Name: "fg.py", Src: loopSrc(fgN), Mode: runtime.CPython})
	if fg.Class != ClassOK || fg.Output != loopSum(fgN) {
		t.Fatalf("lane-0 job: class %s output %q err %q", fg.Class, fg.Output, fg.Err)
	}
	select {
	case res := <-bg:
		t.Fatalf("a lane-1 job finished (%d preemptions) before the lane-0 job it should have yielded to",
			res.Preemptions)
	default:
	}
	preempted := 0
	for i := 0; i < 2; i++ {
		res := <-bg
		if res.Class != ClassOK || res.Output != loopSum(bgN) {
			t.Fatalf("lane-1 job: class %s output %q err %q", res.Class, res.Output, res.Err)
		}
		preempted += res.Preemptions
	}
	if st := s.Stats(); st.Reclaimed != 1 || st.Preempted != 1 || preempted != 1 {
		t.Fatalf("want exactly one (reclaimed) preemption, got %d on results, stats %+v", preempted, st)
	}
}

// TestSchedReclaimsFromLowestLane: the slot reclaimed for a lane-0
// arrival is the lowest lane's, and one arrival reclaims one slot.
func TestSchedReclaimsFromLowestLane(t *testing.T) {
	s := NewSched(SchedConfig{
		Slots:         2,
		Lanes:         3,
		QuantumSteps:  1 << 40,
		DefaultLimits: schedTestLimits(),
	})
	defer s.Close()

	const bgN = 300_000
	byLane := make(chan [2]int, 2) // {lane, preemptions}
	for lane := 1; lane <= 2; lane++ {
		go func(lane int) {
			res := s.Submit(&Job{Name: "bg.py", Src: loopSrc(bgN), Mode: runtime.CPython, Lane: lane})
			if res.Class != ClassOK || res.Output != loopSum(bgN) {
				t.Errorf("lane-%d job: class %s output %q err %q", lane, res.Class, res.Output, res.Err)
			}
			byLane <- [2]int{lane, res.Preemptions}
		}(lane)
	}
	waitStats(t, s, "both slots granted", func(st Stats) bool { return st.Idle == 0 })
	if fg := s.Submit(&Job{Name: "fg.py", Src: loopSrc(1_000), Mode: runtime.CPython}); fg.Class != ClassOK {
		t.Fatalf("lane-0 job: class %s err %q", fg.Class, fg.Err)
	}
	for i := 0; i < 2; i++ {
		r := <-byLane
		if want := r[0] - 1; r[1] != want {
			t.Errorf("lane-%d job preempted %d times, want %d", r[0], r[1], want)
		}
	}
	if st := s.Stats(); st.Reclaimed != 1 {
		t.Fatalf("reclaimed %d slots for one arrival: %+v", st.Reclaimed, st)
	}
}

// TestSchedTenantFairness: a tenant flooding the scheduler with long
// jobs must not starve a light tenant — round robin gives the light
// tenant's short job a slice every round, so it finishes well
// before the flood drains.
func TestSchedTenantFairness(t *testing.T) {
	s := NewSched(SchedConfig{
		Slots:         1,
		QuantumSteps:  2_000,
		MaxResident:   8,
		DefaultLimits: schedTestLimits(),
	})
	defer s.Close()

	var wg sync.WaitGroup
	floodDone := make(chan time.Time, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := s.Submit(&Job{Name: "flood.py", Src: loopSrc(100_000), Mode: runtime.CPython, Tenant: "flood"})
			if res.Class != ClassOK {
				t.Errorf("flood: %s %q", res.Class, res.Err)
			}
			floodDone <- time.Now()
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the flood occupy the scheduler
	res := s.Submit(&Job{Name: "light.py", Src: loopSrc(3_000), Mode: runtime.CPython, Tenant: "light"})
	lightDone := time.Now()
	if res.Class != ClassOK {
		t.Fatalf("light: %s %q", res.Class, res.Err)
	}
	wg.Wait()
	close(floodDone)
	var lastFlood time.Time
	for ts := range floodDone {
		if ts.After(lastFlood) {
			lastFlood = ts
		}
	}
	if !lightDone.Before(lastFlood) {
		t.Fatal("light tenant starved behind the flood tenant's backlog")
	}
}

// TestSchedShedPaths: admission control sheds with a Retry-After hint,
// and a shed result records the queue wait it accumulated.
func TestSchedShedPaths(t *testing.T) {
	s := NewSched(SchedConfig{
		Slots:         1,
		MaxInFlight:   2,
		QuantumSteps:  2_000,
		DefaultLimits: schedTestLimits(),
	})
	defer s.Close()

	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			s.Submit(&Job{Name: "hold.py", Src: loopSrc(200_000), Mode: runtime.CPython})
		}()
	}
	close(release)
	// Wait until both holders are admitted.
	for i := 0; ; i++ {
		if st := s.Stats(); st.Submitted >= 2 && st.Idle == 0 {
			break
		}
		if i > 1000 {
			t.Fatal("holders never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	res := s.Submit(&Job{Name: "over.py", Src: "print(1)\n", Mode: runtime.CPython})
	if res.Class != ClassShed {
		t.Fatalf("want shed, got %s %q", res.Class, res.Err)
	}
	if res.RetryAfter <= 0 {
		t.Fatal("shed without Retry-After hint")
	}
	wg.Wait()

	// Oversized reservation: can never start, shed at admission.
	res = s.Submit(&Job{
		Name:   "huge.py",
		Src:    "print(1)\n",
		Mode:   runtime.CPython,
		Limits: interp.Limits{MaxHeapBytes: 16 << 30, Deadline: time.Second},
	})
	if res.Class != ClassShed || !strings.Contains(res.Err, "watermark") {
		t.Fatalf("oversized reservation: got %s %q", res.Class, res.Err)
	}
}

// TestSchedDrainShedsQueuedKeepsInflight: Drain sheds unstarted queued
// jobs (with their accumulated wait) and lets started jobs finish.
func TestSchedDrainShedsQueuedKeepsInflight(t *testing.T) {
	s := NewSched(SchedConfig{
		Slots:         1,
		MaxResident:   1, // the second job must queue unstarted
		QuantumSteps:  2_000,
		DefaultLimits: schedTestLimits(),
	})
	defer s.Close()

	first := make(chan *JobResult, 1)
	go func() {
		first <- s.Submit(&Job{Name: "inflight.py", Src: loopSrc(400_000), Mode: runtime.CPython})
	}()
	// Wait for it to be running.
	for i := 0; ; i++ {
		if st := s.Stats(); st.Idle == 0 && st.Resident == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	second := make(chan *JobResult, 1)
	go func() {
		second <- s.Submit(&Job{Name: "queued.py", Src: "print(1)\n", Mode: runtime.CPython})
	}()
	for i := 0; ; i++ {
		if st := s.Stats(); st.Queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // accumulate measurable queue wait
	if !s.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	res2 := <-second
	if res2.Class != ClassShed {
		t.Fatalf("queued job: want shed on drain, got %s %q", res2.Class, res2.Err)
	}
	if res2.Queued <= 0 {
		t.Fatal("shed-on-drain result lost its queue wait")
	}
	res1 := <-first
	if res1.Class != ClassOK {
		t.Fatalf("in-flight job: want OK through drain, got %s %q", res1.Class, res1.Err)
	}
}

// TestSchedWedgeVerdict: an injected wedge stalls a job's first slice
// past the watchdog; the submitter gets ClassWedged, the scheduler keeps
// serving, and the zombie's runner is never reused.
func TestSchedWedgeVerdict(t *testing.T) {
	fc := faults.Config{Seed: 1}
	fc.EveryN[faults.WorkerWedge] = 2 // fires on the 2nd wedge-site visit
	s := NewSched(SchedConfig{
		Slots:        1,
		QuantumSteps: 2_000,
		DefaultLimits: interp.Limits{
			MaxSteps: 5_000_000, MaxHeapBytes: 64 << 20, Deadline: 100 * time.Millisecond,
		},
		WedgeSlack:    50 * time.Millisecond,
		MaintInterval: 5 * time.Millisecond,
		Faults:        faults.New(fc),
	})
	defer s.Close()

	res := s.Submit(&Job{Name: "warmup.py", Src: "print(1)\n", Mode: runtime.CPython})
	if res.Class != ClassOK {
		t.Fatalf("warmup: %s %q", res.Class, res.Err)
	}
	res = s.Submit(&Job{Name: "wedge.py", Src: "print(1)\n", Mode: runtime.CPython})
	if res.Class != ClassWedged {
		t.Fatalf("want wedged, got %s %q", res.Class, res.Err)
	}
	// The scheduler survives and serves the next job.
	res = s.Submit(&Job{Name: "after.py", Src: "print(6 * 7)\n", Mode: runtime.CPython})
	if res.Class != ClassOK || res.Output != "42\n" {
		t.Fatalf("post-wedge job: %s %q out=%q", res.Class, res.Err, res.Output)
	}
	if st := s.Stats(); st.Wedged != 1 {
		t.Fatalf("stats.Wedged = %d", st.Wedged)
	}
}

// TestWedgeVerdictReleasesResidency: the wedge verdict releases the
// job's residency and heap reservation at once, not when the zombie VM
// returns. With MaxResident == Slots a VM that never returns would
// otherwise hold the node's only resident slot forever.
func TestWedgeVerdictReleasesResidency(t *testing.T) {
	fc := faults.Config{}
	fc.EveryN[faults.WorkerWedge] = 1
	s := NewSched(SchedConfig{
		Slots:        1,
		MaxResident:  1,
		QuantumSteps: 2_000,
		DefaultLimits: interp.Limits{
			MaxSteps: 5_000_000, MaxHeapBytes: 64 << 20, Deadline: 20 * time.Millisecond,
		},
		// Watchdog 2*20ms + 500ms; the zombie sleeps a further 500ms.
		WedgeSlack:    500 * time.Millisecond,
		MaintInterval: 5 * time.Millisecond,
		Faults:        faults.New(fc),
	})
	defer s.Close()

	res := s.Submit(&Job{Name: "wedge.py", Src: "print(1)\n", Mode: runtime.CPython})
	if res.Class != ClassWedged {
		t.Fatalf("want wedged, got %s %q", res.Class, res.Err)
	}
	if st := s.Stats(); st.Resident != 0 || st.HeapReserved != 0 || st.Idle != 1 {
		t.Fatalf("wedge verdict kept the zombie's residency: %+v", st)
	}
}

// TestSchedStampsRunnerID: every executed result names the Runner that
// ran it, and a poisoned Runner never serves again.
func TestSchedStampsRunnerID(t *testing.T) {
	s := NewSched(SchedConfig{Slots: 1, DefaultLimits: schedTestLimits()})
	defer s.Close()
	ok := s.Submit(&Job{Name: "ok.py", Src: "print(1)\n", Mode: runtime.CPython})
	if ok.Class != ClassOK || ok.Worker < 0 {
		t.Fatalf("clean job: class %s worker %d", ok.Class, ok.Worker)
	}
	bad := s.Submit(&Job{Name: "bad.py", Code: badCode(), Mode: runtime.CPython})
	if bad.Class != ClassInternal || bad.Worker < 0 {
		t.Fatalf("poisoning job: class %s worker %d", bad.Class, bad.Worker)
	}
	for i := 0; i < 3; i++ {
		res := s.Submit(&Job{Name: "after.py", Src: "print(2)\n", Mode: runtime.CPython})
		if res.Class != ClassOK || res.Worker < 0 || res.Worker == bad.Worker {
			t.Fatalf("job %d after poisoning: class %s on Runner %d (poisoned %d)",
				i, res.Class, res.Worker, bad.Worker)
		}
	}
}

// TestExclusiveNeverPreempts: in the exclusive configuration a job keeps
// its slot from grant to finish, however many jobs wait behind it.
func TestExclusiveNeverPreempts(t *testing.T) {
	p := testPool(t, Config{Workers: 1, DefaultLimits: schedTestLimits()})
	const n = 300_000
	results := make(chan *JobResult, 3)
	submit := func() {
		results <- p.Submit(&Job{Name: "long.py", Src: loopSrc(n), Mode: runtime.CPython})
	}
	go submit()
	waitStats(t, p, "first job granted", func(s Stats) bool { return s.Idle == 0 })
	go submit()
	go submit()
	waitStats(t, p, "two waiters", func(s Stats) bool { return s.Queued == 2 })
	for i := 0; i < 3; i++ {
		res := <-results
		if res.Class != ClassOK || res.Output != loopSum(n) {
			t.Fatalf("job: class %s output %q err %q", res.Class, res.Output, res.Err)
		}
		if res.Preemptions != 0 {
			t.Fatalf("exclusive job preempted %d times", res.Preemptions)
		}
		for _, ev := range res.Lifecycle {
			if ev.State == LifePreempted {
				t.Fatalf("exclusive job lifecycle %v", res.Lifecycle)
			}
		}
	}
	if st := p.Stats(); st.Preempted != 0 {
		t.Fatalf("exclusive configuration preempted: %+v", st)
	}
}

// TestSchedLifecycleTelemetry: transitions land on the metrics core with
// preemptions visible, and the gauges register.
func TestSchedLifecycleTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	s := NewSched(SchedConfig{
		Slots:         1,
		QuantumSteps:  2_000,
		MaxResident:   4,
		DefaultLimits: schedTestLimits(),
		Metrics:       m,
	})
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Submit(&Job{Name: "t.py", Src: loopSrc(60_000), Mode: runtime.CPython})
		}()
	}
	wg.Wait()

	if got := m.schedTransitions.Value(int(LifeQueued)); got != 4 {
		t.Fatalf("queued transitions = %d, want 4", got)
	}
	if got := m.schedTransitions.Value(int(LifeFinished)); got != 4 {
		t.Fatalf("finished transitions = %d, want 4", got)
	}
	if m.schedTransitions.Value(int(LifePreempted)) == 0 {
		t.Fatal("no preempted transitions under a saturated slot")
	}
	if snap := m.schedStateTime.Snapshot(int(LifeRunning)); snap.Count == 0 {
		t.Fatal("no running-state dwell samples")
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"minipy_sched_transitions_total", "minipy_sched_state_seconds",
		"minipy_sched_running", "minipy_sched_resident",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %s", want)
		}
	}
}

// TestSchedPreemptionChurnRace is the -race stress: many submitters,
// few slots, tiny quantum — constant park/resume churn with wedge scans
// running. Correctness of every result is still asserted.
func TestSchedPreemptionChurnRace(t *testing.T) {
	if testing.Short() {
		t.Skip("churn stress skipped in -short")
	}
	s := NewSched(SchedConfig{
		Slots:         2,
		QuantumSteps:  500,
		MaxResident:   6,
		Lanes:         2,
		DefaultLimits: schedTestLimits(),
		MaintInterval: 2 * time.Millisecond,
	})
	defer s.Close()

	const submitters = 16
	const perSubmitter = 4
	var wg sync.WaitGroup
	errs := make(chan string, submitters*perSubmitter)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				n := 2_000 + (g*perSubmitter+k)%5*10_000
				res := s.Submit(&Job{
					Name:   fmt.Sprintf("churn-%d-%d.py", g, k),
					Src:    loopSrc(n),
					Mode:   runtime.Mode((g + k) % int(runtime.NumModes)),
					Lane:   g % 2,
					Tenant: fmt.Sprintf("t%d", g%3),
				})
				if res.Class != ClassOK {
					errs <- fmt.Sprintf("job %d/%d: %s %q", g, k, res.Class, res.Err)
					continue
				}
				if res.Output != loopSum(n) {
					errs <- fmt.Sprintf("job %d/%d: wrong output %q", g, k, res.Output)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSchedSoakClean: the scheduler-chaos soak with no faults armed is a
// pure interleaving-conformance run — zero violations, and the forced-
// preemption shape must actually preempt.
func TestSchedSoakClean(t *testing.T) {
	res := SchedSoak(SchedSoakConfig{Seed: 1, Jobs: 60})
	if !res.Ok() {
		t.Fatalf("clean sched soak violations: %v", res.Violations)
	}
	if res.Stats.Preempted == 0 {
		t.Fatalf("clean sched soak never preempted: %+v", res.Stats)
	}
}

// TestSchedSoakUnderWedgeFaults: injected wedges may cost the wedged
// job, but never the scheduler, never another job's output.
func TestSchedSoakUnderWedgeFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	res := SchedSoak(SchedSoakConfig{
		Seed:        7,
		Jobs:        120,
		WedgeEveryN: 40,
		// A tight deadline shrinks the wedge horizon (2x deadline +
		// slack), so injected wedges resolve in ~1s instead of ~10s.
		// Parked time is credited back, so honest jobs don't trip it.
		Limits: interp.Limits{
			MaxSteps:     2_000_000,
			MaxHeapBytes: 64 << 20,
			Deadline:     500 * time.Millisecond,
		},
	})
	if !res.Ok() {
		t.Fatalf("sched soak violations: %v", res.Violations)
	}
	if res.Stats.Wedged == 0 {
		t.Fatalf("wedge schedule never fired; soak proves nothing: %+v", res.Stats)
	}
}
