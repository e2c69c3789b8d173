// Package difftest is a differential execution oracle for the MiniPy
// runtimes: it generates seeded, deterministic programs that stress the
// paper's overhead-prone surfaces (boxed arithmetic, dict-based name
// resolution, attribute lookup, string formatting, subscripting, closures,
// exceptions, and the C-helper library), executes each program under the
// interpreter-only baseline and every JIT/GC configuration, and fails on
// any divergence in output, raised exception, or final global bindings.
//
// Divergent programs are minimized by iterative block deletion and written
// to a corpus directory as standalone reproducers. Alongside the
// cross-mode diff, per-leg invariant checks audit runtime statistics
// (refcount balance, GC survivor accounting, JIT deopt/guard counts) so
// bookkeeping bugs surface even when program output is unaffected.
//
// Bounded runs are wired into `go test ./internal/difftest`; long soaks
// run via cmd/pyfuzz.
package difftest

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/jit"
)

// Options configures a fuzzing run.
type Options struct {
	// Seed is the base seed; program i uses seed Seed+i.
	Seed uint64
	// N is the number of generated programs to check.
	N int
	// Nurseries overrides the generational nursery sweep (default
	// DefaultNurseries).
	Nurseries []uint64
	// Budget bounds per-leg execution in bytecodes (default
	// DefaultBudget).
	Budget uint64
	// CorpusDir, when non-empty, receives a minimized reproducer for
	// every divergence.
	CorpusDir string
	// MutateJIT edits each JIT leg's config before use (fault injection
	// in tests).
	MutateJIT func(*jit.Config)
	// FaultRate, when nonzero, switches the run to chaos mode: the leg
	// matrix becomes ChaosLegs (unfaulted baseline + faulted legs) with
	// every fault kind firing at probability 1/FaultRate per site.
	// Quicken, FaultRate and Progstore each select one focused matrix;
	// Matrix rejects more than one.
	FaultRate uint64
	// FaultSeed seeds the chaos injectors (default: Seed).
	FaultSeed uint64
	// Quicken switches the run to the quickening-focused leg matrix
	// (QuickenLegs): cold interpreter, inline-cache flush churn, and a
	// JIT leg against the quickened baseline.
	Quicken bool
	// Progstore switches the run to the program-store leg matrix
	// (ProgstoreLegs): store-cold, IC-seed warm start, eviction/
	// recompile churn, and SeedCorrupt injection on the seed import
	// path.
	Progstore bool
	// Progress, when non-nil, is called after each program with the
	// number checked so far.
	Progress func(done int)
}

// Report summarizes a fuzzing run.
type Report struct {
	// Programs is the number of generated programs checked.
	Programs int
	// Legs is the number of runtime configurations each program ran
	// under.
	Legs int
	// Divergences holds every cross-mode disagreement, minimized.
	Divergences []Divergence
	// InvariantFailures holds every statistics-consistency violation.
	InvariantFailures []string
	// ReproPaths lists corpus files written for the divergences.
	ReproPaths []string
	// Stats aggregates chaos/JIT degradation counters across the run:
	// faults injected, deopts (including error-forced ones), and aborted
	// trace compiles — the soak's evidence that fallback paths executed.
	Stats ProgramStats
}

// OK reports whether the run observed no failures.
func (r *Report) OK() bool {
	return len(r.Divergences) == 0 && len(r.InvariantFailures) == 0
}

// Summary renders a one-paragraph human-readable result.
func (r *Report) Summary() string {
	s := fmt.Sprintf("difftest: %d programs x %d legs: %d divergences, %d invariant failures",
		r.Programs, r.Legs, len(r.Divergences), len(r.InvariantFailures))
	if r.Stats.FaultsFired > 0 {
		s += fmt.Sprintf("\n  chaos: %d faults injected; jit fallback: %d deopts (%d error-forced), %d aborted compiles",
			r.Stats.FaultsFired, r.Stats.Deopts, r.Stats.ErrorDeopts, r.Stats.TracesAborted)
	}
	for i := range r.Divergences {
		s += "\n  " + r.Divergences[i].String()
	}
	for _, iv := range r.InvariantFailures {
		s += "\n  invariant: " + iv
	}
	return s
}

// Run checks n generated programs starting at the given seed under the
// default leg matrix. It is the bounded fuzz entry point used by the
// package tests; RunWith exposes the full options.
func Run(seed uint64, n int) (*Report, error) {
	return RunWith(Options{Seed: seed, N: n})
}

// Matrix returns the leg matrix opts selects: Legs by default, or the
// one focused matrix that Quicken, FaultRate or Progstore names. Naming
// more than one, or tuning the default matrix (Nurseries, MutateJIT)
// alongside a focused one, is an error rather than a silent precedence.
func (opts Options) Matrix() ([]Leg, error) {
	fseed := opts.FaultSeed
	if fseed == 0 {
		fseed = opts.Seed
	}
	var focused []string
	var legs []Leg
	if opts.Quicken {
		focused, legs = append(focused, "quicken"), QuickenLegs()
	}
	if opts.FaultRate != 0 {
		focused, legs = append(focused, "faults"), ChaosLegs(fseed, opts.FaultRate)
	}
	if opts.Progstore {
		focused, legs = append(focused, "progstore"), ProgstoreLegs(fseed)
	}
	switch {
	case len(focused) > 1:
		return nil, fmt.Errorf("difftest: %s are mutually exclusive", strings.Join(focused, ", "))
	case len(focused) == 1 && (len(opts.Nurseries) != 0 || opts.MutateJIT != nil):
		return nil, fmt.Errorf("difftest: nursery sizes and JIT mutation apply to the default matrix, not %s", focused[0])
	case len(focused) == 1:
		return legs, nil
	}
	return Legs(opts.Nurseries, opts.MutateJIT), nil
}

// RunWith executes a fuzzing run per opts. Programs are checked on
// GOMAXPROCS workers; results, reproducers and Progress calls are merged
// in seed order, so the report does not depend on the worker count.
func RunWith(opts Options) (*Report, error) {
	legs, err := opts.Matrix()
	if err != nil {
		return nil, err
	}
	type checked struct {
		divs  []Divergence
		invs  []string
		stats ProgramStats
		err   error
		done  chan struct{}
	}
	results := make([]checked, opts.N)
	for i := range results {
		results[i].done = make(chan struct{})
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < opts.N && !stop.Load(); i = int(next.Add(1) - 1) {
				r := &results[i]
				seed := opts.Seed + uint64(i)
				r.divs, r.invs, r.stats, r.err = CheckProgram(legs, fmt.Sprintf("fuzz_seed%d.py", seed), Generate(seed), opts.Budget)
				if r.err != nil {
					r.err = fmt.Errorf("seed %d: %w", seed, r.err)
				}
				// One shrink per program: legs usually disagree for the
				// same root cause, and shrinking is by far the most
				// expensive step.
				var minimized string
				for di := range r.divs {
					r.divs[di].Seed = seed
					if di == 0 {
						minimized = minimize(legs, r.divs[0], opts.Budget)
					}
					r.divs[di].Minimized = minimized
				}
				close(r.done)
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)

	rep := &Report{Legs: len(legs)}
	for i := range results {
		r := &results[i]
		<-r.done
		if r.err != nil {
			return rep, r.err
		}
		rep.Stats.FaultsFired += r.stats.FaultsFired
		rep.Stats.Deopts += r.stats.Deopts
		rep.Stats.ErrorDeopts += r.stats.ErrorDeopts
		rep.Stats.TracesAborted += r.stats.TracesAborted
		if opts.CorpusDir != "" && len(r.divs) > 0 {
			if p, werr := WriteRepro(opts.CorpusDir, &r.divs[0]); werr == nil {
				rep.ReproPaths = append(rep.ReproPaths, p)
			}
		}
		rep.Divergences = append(rep.Divergences, r.divs...)
		rep.InvariantFailures = append(rep.InvariantFailures, r.invs...)
		rep.Programs++
		if opts.Progress != nil {
			opts.Progress(rep.Programs)
		}
	}
	return rep, nil
}

// minimize shrinks a divergent program, preserving "still diverges on the
// same leg". Returns "" if the leg cannot be found (defensive; cannot
// happen for divergences produced by CheckProgram).
func minimize(legs []Leg, d Divergence, budget uint64) string {
	var leg *Leg
	for i := range legs {
		if legs[i].Name == d.Leg {
			leg = &legs[i]
			break
		}
	}
	if leg == nil {
		return ""
	}
	if leg.Chaos != nil {
		// Chaos fault schedules are seeded by program name, so a shrunk
		// candidate replays a different schedule and the divergence
		// predicate is not stable under shrinking. Report unminimized.
		return ""
	}
	return Shrink(d.Program, func(cand string) bool {
		return DivergesOn(legs[0], *leg, "shrink.py", cand, budget)
	})
}
