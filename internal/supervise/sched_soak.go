package supervise

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/difftest"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/runtime"
)

// SchedSoakConfig parameterizes the scheduler-chaos soak: a mixed
// long/short workload submitted concurrently to a step-sliced Sched at
// a small quantum (so preemption fires constantly), each executed
// result diffed against a fresh, unsupervised reference Runner. It
// proves that neither injected wedges nor arbitrary park/resume
// interleavings cross-contaminate jobs.
type SchedSoakConfig struct {
	Seed uint64
	Jobs int
	// Slots and QuantumSteps shape the scheduler (defaults 2 and 2000:
	// fewer slots than concurrent submitters, slices far smaller than
	// the long jobs, so every long job is preempted many times).
	Slots        int
	QuantumSteps uint64
	// Concurrency is how many submitters run at once (default 8).
	Concurrency int
	// WedgeEveryN arms the supervision-fault injector: every Nth
	// granted job stalls past the wedge horizon (0 disables).
	WedgeEveryN uint64
	// Limits are the per-job budgets; the zero value takes soak defaults
	// (the deterministic step budget decides outcomes).
	Limits interp.Limits
	// Metrics, when non-nil, instruments the soak scheduler.
	Metrics *Metrics
}

// SchedSoak runs the scheduler-chaos soak. The scheduler's contract,
// asserted per job: every Submit returns a well-formed class; a ClassOK
// result matches a fresh exclusive reference run bit-for-bit (no
// interleaving divergence, no cross-job contamination); errored results
// never carry another job's output; and under a forced-preemption
// shape, preemptions and mid-quantum reclaims for lane-0 arrivals
// actually happened (a soak that never preempted proved nothing).
func SchedSoak(cfg SchedSoakConfig) *SoakResult {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 500
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.QuantumSteps == 0 {
		cfg.QuantumSteps = 2000
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Limits == (interp.Limits{}) {
		cfg.Limits = interp.Limits{
			MaxSteps:     2_000_000,
			MaxHeapBytes: 64 << 20,
			// Generous: parked time is credited back, but a soak box
			// under load still needs headroom before the deadline class
			// turns timing-dependent.
			Deadline: 5 * time.Second,
		}
	}
	var inj *faults.Injector
	if cfg.WedgeEveryN != 0 {
		fc := faults.Config{Seed: cfg.Seed}
		fc.EveryN[faults.WorkerWedge] = cfg.WedgeEveryN
		inj = faults.New(fc)
	}
	sched := NewSched(SchedConfig{
		Slots:         cfg.Slots,
		QuantumSteps:  cfg.QuantumSteps,
		DefaultLimits: cfg.Limits,
		Faults:        inj,
		Metrics:       cfg.Metrics,
		WedgeSlack:    250 * time.Millisecond,
	})
	defer sched.Close()

	res := &SoakResult{Jobs: cfg.Jobs}
	type refKey struct {
		seed uint64
		mode runtime.Mode
	}
	var mu sync.Mutex // guards res.Violations and refs
	refs := make(map[refKey]*JobResult)
	violate := func(format string, args ...interface{}) {
		mu.Lock()
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	// The workload mix: two thirds short generated programs, one third
	// long synthetic loops that span many quanta — the continuous-
	// batching shape where short jobs finish in the gaps of long ones.
	longSrc := "i = 0\nacc = 0\nwhile i < 150000:\n    acc = acc + i\n    i = i + 1\nprint(acc)\n"
	const longOut = "11249925000\n"

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				mode := runtime.Mode(i % int(runtime.NumModes))
				long := i%3 == 2
				var name, src string
				var progSeed uint64
				if long {
					name = fmt.Sprintf("soak-long-%d.py", i)
					src = longSrc
				} else {
					progSeed = cfg.Seed + uint64(i%97)
					name = fmt.Sprintf("soak-%d.py", progSeed)
					src = difftest.Generate(progSeed)
				}

				got := sched.Submit(&Job{
					Name: name, Src: src, Mode: mode,
					Lane: i % 2, Tenant: fmt.Sprintf("t%d", i%5),
				})
				if got == nil {
					violate("job %d: Submit returned nil", i)
					continue
				}
				if got.Class >= NumClasses {
					violate("job %d: malformed class %d", i, got.Class)
					continue
				}
				if (got.Class == ClassOK) != (got.Err == "") {
					violate("job %d: class %s with err %q", i, got.Class, got.Err)
					continue
				}
				if got.Class == ClassShed || got.Class == ClassWedged {
					if got.Class == ClassShed && got.RetryAfter <= 0 {
						violate("job %d: shed without RetryAfter hint", i)
					}
					continue
				}

				var want *JobResult
				if long {
					want = &JobResult{Class: ClassOK, Output: longOut}
				} else {
					key := refKey{progSeed, mode}
					mu.Lock()
					want = refs[key]
					mu.Unlock()
					if want == nil {
						want = ReferenceRun(name, src, mode, cfg.Limits)
						mu.Lock()
						refs[key] = want
						mu.Unlock()
					}
				}
				if got.Class != want.Class || got.Err != want.Err {
					if strings.Contains(got.Err, "deadline") || strings.Contains(want.Err, "deadline") {
						continue // wall-clock trips are timing noise, not divergence
					}
					violate("job %d (%s, %s): sched outcome %s %q, reference %s %q",
						i, name, mode, got.Class, got.Err, want.Class, want.Err)
					continue
				}
				if got.Output != want.Output {
					violate("job %d (%s, %s): interleaving divergence: sched %q, reference %q",
						i, name, mode, clip(got.Output), clip(want.Output))
				}
			}
		}()
	}
	for i := 0; i < cfg.Jobs; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	res.Stats = sched.Stats()
	if res.Stats.Workers == 0 {
		res.Violations = append(res.Violations,
			"scheduler finished the soak with zero slots")
	}
	if res.Stats.Preempted == 0 && cfg.Jobs >= cfg.Concurrency {
		res.Violations = append(res.Violations,
			"soak ran to completion without a single preemption; the interleaving path went untested")
	}
	// A reclaim needs a lane-0 arrival behind a running lane-1 job, which
	// the first wave — every submitter at once — rarely produces; a soak
	// of ten waves always has.
	if res.Stats.Reclaimed == 0 && cfg.Jobs >= 10*cfg.Concurrency {
		res.Violations = append(res.Violations,
			"no lane-0 arrival ever reclaimed a lane-1 job's slot; the mid-quantum yield went untested")
	}
	return res
}
