package supervise

// The scheduler-equivalence layer, in the style of the interpreter's
// quickening-equivalence suite: step-slicing is a pure scheduling
// transform. A program run exclusively and the same program run under a
// yield hook — at any quantum, parked and resumed arbitrarily between
// slices — must agree on program output, exception identity, limit
// class, and (for clean runs) the net reference-count balance
// (Increfs + Allocations - Decrefs). Two granularities are covered:
// runner-level (a single Runner with a forced-parking yield hook vs the
// same Runner without) and sched-level (a step-sliced Sched vs the
// exclusive configuration, end to end, with preemption churn from
// concurrent load and reclaims across lanes). Deadline trips are the one excluded class: they are
// timing-dependent by definition, so the deterministic limit programs
// below pin the step-budget, recursion, and output-limit classes
// instead.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/interp"
	"repro/internal/runtime"
)

// sliceLeg is one slice shape: a quantum (0: the exclusive leg) and
// whether the urgent flag is held up, which makes the VM yield at every
// preemption check (~1k bytecodes) as if reclaimed for a higher lane.
type sliceLeg struct {
	quantum uint64
	urgent  bool
}

func (l sliceLeg) String() string {
	if l.urgent {
		return "urgent"
	}
	return fmt.Sprintf("quantum %d", l.quantum)
}

// equivLegs are the slice shapes under test: pathological (yield every
// bytecode), small (many yields per program), the production default,
// and mid-quantum reclaims under a quantum that never ends.
var equivLegs = []sliceLeg{{quantum: 1}, {quantum: 64}, {quantum: 50_000}, {quantum: ^uint64(0), urgent: true}}

// equivLimits keep every corpus program's class deterministic: the step
// budget decides timeouts, never the wall clock.
func equivLimits() interp.Limits {
	return interp.Limits{
		MaxSteps:     difftest.DefaultBudget,
		MaxHeapBytes: 256 << 20,
		Deadline:     30 * time.Second,
	}
}

type legOutcome struct {
	Output  string
	Err     string
	Class   Class
	NetRefs int64
}

// runLeg executes src on a fresh serving Runner. The zero leg is the
// exclusive one; otherwise a yield hook is armed that parks for real
// (sleeps off the goroutine) on a sparse subset of yields, exercising
// the park/resume path rather than just the governor arithmetic. The
// park cadence scales with the quantum so the pathological quantum-1
// leg doesn't spend its wall clock asleep: what matters is that SOME
// yields genuinely park, not that all of them do.
func runLeg(t *testing.T, name, src string, shape sliceLeg, limits interp.Limits) legOutcome {
	t.Helper()
	var out strings.Builder
	cfg := runtime.ServingConfig(runtime.CPython)
	cfg.Stdout = &out
	cfg.Limits = limits
	r, err := runtime.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shape.quantum != 0 {
		cadence := 3
		if shape.quantum < 1024 {
			cadence = int(4096 / shape.quantum)
		}
		var urgent *atomic.Bool
		if shape.urgent {
			urgent = new(atomic.Bool)
			urgent.Store(true)
		}
		var yields int
		r.SetYield(shape.quantum, urgent, func() time.Duration {
			yields++
			if yields%cadence != 0 {
				return 0
			}
			start := time.Now()
			time.Sleep(50 * time.Microsecond)
			return time.Since(start)
		})
	}
	res, runErr := r.Run(name, src)
	leg := legOutcome{Output: out.String(), Class: ClassOK}
	if runErr != nil {
		leg.Err = runErr.Error()
		leg.Class = Classify(runErr)
	}
	if res != nil {
		h := res.Heap
		leg.NetRefs = int64(h.Increfs) + int64(h.Allocations) - int64(h.Decrefs)
	}
	return leg
}

// assertSlicingAgrees runs src exclusively and at every quantum, and
// fails on any divergence. Net refcounts are only compared on clean
// runs: an exception unwinds with path-specific temporaries.
func assertSlicingAgrees(t *testing.T, name, src string) {
	t.Helper()
	limits := equivLimits()
	base := runLeg(t, name, src, sliceLeg{}, limits)
	for _, leg := range equivLegs {
		got := runLeg(t, name, src, leg, limits)
		if got.Output != base.Output {
			t.Errorf("%s: %v output diverged\n--- exclusive ---\n%s--- sliced ---\n%s",
				name, leg, base.Output, got.Output)
		}
		if got.Err != base.Err {
			t.Errorf("%s: %v exception diverged: exclusive %q, sliced %q",
				name, leg, base.Err, got.Err)
		}
		if got.Class != base.Class {
			t.Errorf("%s: %v class diverged: exclusive %v, sliced %v",
				name, leg, base.Class, got.Class)
		}
		if base.Err == "" && got.NetRefs != base.NetRefs {
			t.Errorf("%s: %v net refcount balance diverged: exclusive %d, sliced %d",
				name, leg, base.NetRefs, got.NetRefs)
		}
	}
}

func TestSlicedEquivCorpus(t *testing.T) {
	corpus, err := difftest.LoadCorpus("../difftest/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty difftest corpus")
	}
	for name, src := range corpus {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertSlicingAgrees(t, name, src)
		})
	}
}

func TestSlicedEquivGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("generated slicing-equivalence sweep skipped in -short mode")
	}
	const seeds = 12
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		name := fmt.Sprintf("gen_%03d", seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertSlicingAgrees(t, name, difftest.Generate(seed))
		})
	}
}

// limitPrograms trip each deterministic limit class: the step budget,
// the recursion cap, and the output cap. (Deadline is excluded: it is
// the one wall-clock-dependent class, and slicing legitimately changes
// wall-clock time.) Each entry's limits make the trip deterministic at
// any quantum.
var limitPrograms = []struct {
	name   string
	src    string
	limits interp.Limits
	want   Class
}{
	{
		name: "limit_steps",
		src:  "i = 0\nwhile i < 1000000:\n    i = i + 1\nprint(i)\n",
		limits: interp.Limits{
			MaxSteps: 10_000, MaxHeapBytes: 64 << 20, Deadline: 30 * time.Second,
		},
		want: ClassTimeout,
	},
	{
		name: "limit_recursion",
		src:  "def f(n):\n    return f(n + 1)\nf(0)\n",
		limits: interp.Limits{
			MaxSteps: 10_000_000, MaxHeapBytes: 64 << 20,
			MaxRecursionDepth: 64, Deadline: 30 * time.Second,
		},
		want: ClassRecursion,
	},
	{
		name: "limit_output",
		src:  "i = 0\nwhile i < 100000:\n    print('xxxxxxxxxxxxxxxx')\n    i = i + 1\n",
		limits: interp.Limits{
			MaxSteps: 10_000_000, MaxHeapBytes: 64 << 20,
			MaxOutputBytes: 4096, Deadline: 30 * time.Second,
		},
		want: ClassOutput,
	},
}

func TestSlicedEquivLimitClasses(t *testing.T) {
	for _, tc := range limitPrograms {
		base := runLeg(t, tc.name, tc.src, sliceLeg{}, tc.limits)
		if base.Class != tc.want {
			t.Fatalf("%s: exclusive class = %v, want %v (err %q)", tc.name, base.Class, tc.want, base.Err)
		}
		for _, leg := range equivLegs {
			got := runLeg(t, tc.name, tc.src, leg, tc.limits)
			if got.Class != base.Class || got.Err != base.Err {
				t.Errorf("%s: %v diverged: exclusive (%v, %q), sliced (%v, %q)",
					tc.name, leg, base.Class, base.Err, got.Class, got.Err)
			}
			if got.Output != base.Output {
				t.Errorf("%s: %v partial output diverged (%d vs %d bytes)",
					tc.name, leg, len(base.Output), len(got.Output))
			}
		}
	}
}

// TestSlicedEquivExclusiveCorpus is the end-to-end leg: every corpus
// program through the exclusive configuration (NewPool) and through a
// step-sliced Sched (small quantum, fewer slots than jobs, so grants
// interleave and preemption actually happens; half the jobs on lane 1,
// so lane-0 arrivals reclaim their slots mid-quantum), all four runtime
// modes. Output, class, exception, and bytecode counts must be
// identical.
func TestSlicedEquivExclusiveCorpus(t *testing.T) {
	corpus, err := difftest.LoadCorpus("../difftest/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty difftest corpus")
	}
	limits := equivLimits()

	pool := NewPool(Config{Workers: 2, DefaultLimits: limits})
	defer pool.Close()
	sched := NewSched(SchedConfig{
		Slots:         2,
		QuantumSteps:  2000,
		MaxResident:   8,
		DefaultLimits: limits,
	})
	defer sched.Close()

	type key struct {
		name string
		mode runtime.Mode
	}
	exclusiveRes := map[key]*JobResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, src := range corpus {
		for mode := runtime.Mode(0); mode < runtime.NumModes; mode++ {
			// Exclusive reference leg first (serial keeps it simple);
			// the sliced legs below run concurrently to force preemption.
			res := pool.Submit(&Job{Name: name, Src: src, Mode: mode})
			if res.Preemptions != 0 {
				t.Errorf("%s/%v: exclusive leg preempted %d times", name, mode, res.Preemptions)
			}
			exclusiveRes[key{name, mode}] = res
		}
	}
	for name, src := range corpus {
		for mode := runtime.Mode(0); mode < runtime.NumModes; mode++ {
			name, src, mode := name, src, mode
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := sched.Submit(&Job{Name: name, Src: src, Mode: mode, Lane: int(mode) % 2})
				mu.Lock()
				defer mu.Unlock()
				want := exclusiveRes[key{name, mode}]
				if res.Class != want.Class || res.Err != want.Err {
					t.Errorf("%s/%v: sliced (%v, %q) vs exclusive (%v, %q)",
						name, mode, res.Class, res.Err, want.Class, want.Err)
				}
				if res.Output != want.Output {
					t.Errorf("%s/%v: sliced output diverged from exclusive\n--- exclusive ---\n%s--- sliced ---\n%s",
						name, mode, want.Output, res.Output)
				}
				if res.Bytecodes != want.Bytecodes {
					t.Errorf("%s/%v: sliced ran %d bytecodes, exclusive %d",
						name, mode, res.Bytecodes, want.Bytecodes)
				}
			}()
		}
	}
	wg.Wait()
}
