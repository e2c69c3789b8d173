package difftest

import (
	"encoding/json"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/interp"
	"repro/internal/jit"
	"repro/internal/runtime"
)

// TestOracleAgreement is the bounded fuzz target: generated programs must
// behave identically under the interpreter, both JIT configurations, and
// every nursery size, with all runtime-statistics invariants intact.
func TestOracleAgreement(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 25
	}
	rep, err := Run(1, n)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Programs != n {
		t.Fatalf("checked %d programs, want %d", rep.Programs, n)
	}
	if rep.Legs < 10 {
		t.Fatalf("leg matrix has %d legs, want >= 10 (3 modes x 3 nurseries + baseline)", rep.Legs)
	}
	if !rep.OK() {
		t.Fatalf("oracle failures:\n%s", rep.Summary())
	}
}

// TestInjectedGuardBugCaught flips the test-only BrokenGuards fault (the
// compiled int_mod drops its floored-remainder fixup) and demands the
// oracle catch it and produce a minimized reproducer that still diverges.
func TestInjectedGuardBugCaught(t *testing.T) {
	breakGuards := func(c *jit.Config) { c.BrokenGuards = true }

	if !testing.Short() {
		// The generator finds the bug within a few dozen seeds (seed 11
		// in this range triggers it).
		rep, err := RunWith(Options{
			Seed:      92,
			N:         8,
			Nurseries: []uint64{4 << 20},
			MutateJIT: breakGuards,
		})
		if err != nil {
			t.Fatalf("RunWith: %v", err)
		}
		if len(rep.Divergences) == 0 {
			t.Fatal("fuzzing did not catch the injected guard bug")
		}
		d := rep.Divergences[0]
		if d.Minimized == "" {
			t.Fatal("divergence has no minimized reproducer")
		}
		if len(d.Minimized) >= len(d.Program) {
			t.Fatalf("minimized reproducer (%d bytes) not smaller than original (%d bytes)",
				len(d.Minimized), len(d.Program))
		}
		legs := Legs([]uint64{4 << 20}, breakGuards)
		var broken Leg
		for _, l := range legs {
			if l.Name == d.Leg {
				broken = l
			}
		}
		if !DivergesOn(legs[0], broken, "min.py", d.Minimized, 0) {
			t.Fatal("minimized reproducer no longer diverges")
		}
	}

	// The canonical detector must diverge under the fault and agree
	// without it.
	src := `def hot(n):
    acc = 0
    for i in xrange(n):
        acc = acc + (3 - i) % 7
    return acc
print(hot(1500))
`
	base := Leg{Name: "cpython", Heap: gc.DefaultRefCountConfig()}
	badCfg := jit.V8LikeConfig()
	badCfg.BrokenGuards = true
	bad := Leg{Name: "v8like-broken", Heap: gc.DefaultGenConfig(4 << 20), JIT: &badCfg}
	okCfg := jit.V8LikeConfig()
	good := Leg{Name: "v8like", Heap: gc.DefaultGenConfig(4 << 20), JIT: &okCfg}

	if !DivergesOn(base, bad, "negmod.py", src, 0) {
		t.Fatal("broken guards did not diverge on the negative-mod detector")
	}
	if DivergesOn(base, good, "negmod.py", src, 0) {
		t.Fatal("intact guards diverged on the negative-mod detector")
	}

	// And the shrinker must cut the detector down while keeping the bug.
	padded := "unused = [1, 2, 3]\nextra = \"pad\"\n" + src + "print(len(unused), extra)\n"
	min := Shrink(padded, func(cand string) bool {
		return DivergesOn(base, bad, "shrink.py", cand, 0)
	})
	if len(min) >= len(padded) {
		t.Fatalf("shrinker failed to reduce: %d -> %d bytes", len(padded), len(min))
	}
	if !DivergesOn(base, bad, "min.py", min, 0) {
		t.Fatal("shrunk detector no longer diverges")
	}
	if strings.Contains(min, "unused") || strings.Contains(min, "extra") {
		t.Errorf("shrinker kept irrelevant statements:\n%s", min)
	}
}

// TestCorpusConformance replays the checked-in reproducer corpus across
// the full leg matrix; fixed bugs must stay fixed.
func TestCorpusConformance(t *testing.T) {
	legs := Legs(nil, nil)
	divs, invs, err := RunCorpus("corpus", legs, 0)
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	for i := range divs {
		t.Errorf("corpus divergence: %s", divs[i].String())
	}
	for _, iv := range invs {
		t.Errorf("corpus invariant failure: %s", iv)
	}
}

// TestGeneratorDeterminism: one seed, one program text; one program, one
// byte-identical outcome per leg — the property that makes every fuzz
// failure replayable from its seed alone.
func TestGeneratorDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 14, 99, 1234567} {
		a, b := Generate(seed), Generate(seed)
		if a != b {
			t.Fatalf("seed %d generated two different programs", seed)
		}
	}
	src := Generate(42)
	for _, leg := range Legs([]uint64{64 << 10}, nil) {
		o1, err := Execute(leg, "d.py", src, 0)
		if err != nil {
			t.Fatalf("leg %s: %v", leg.Name, err)
		}
		o2, err := Execute(leg, "d.py", src, 0)
		if err != nil {
			t.Fatalf("leg %s: %v", leg.Name, err)
		}
		if o1.Output != o2.Output || o1.Err != o2.Err || o1.Globals != o2.Globals {
			t.Fatalf("leg %s: two runs of the same program differ", leg.Name)
		}
	}
}

// TestShrinkBlockDeletion exercises the shrinker on a known structure: it
// must delete whole suites with their headers and keep the marker line.
func TestShrinkBlockDeletion(t *testing.T) {
	src := `a = 1
def unused(x):
    y = x + 1
    return y
if a > 0:
    a = a + 1
marker = 7
print(marker)
`
	min := Shrink(src, func(cand string) bool {
		return strings.Contains(cand, "marker = 7")
	})
	if !strings.Contains(min, "marker = 7") {
		t.Fatal("shrinker deleted the marker")
	}
	if strings.Contains(min, "def unused") || strings.Contains(min, "y = x + 1") {
		t.Errorf("shrinker kept a deletable function:\n%s", min)
	}
	if !compiles(min) {
		t.Errorf("shrunk program does not compile:\n%s", min)
	}
}

// TestInvariantChecks feeds synthetic outcomes with corrupted statistics
// and expects each corruption to be flagged.
func TestInvariantChecks(t *testing.T) {
	jitStats := func(mut func(*jit.Stats)) *Outcome {
		s := jit.Stats{TracesStarted: 2, TracesCompiled: 1, GuardChecks: 50, Deopts: 3, CompiledIters: 100}
		mut(&s)
		return &Outcome{Leg: "jit", HeapKind: gc.Generational, JIT: &s,
			Snap: interp.Snapshot{Heap: gc.Stats{MinorGCs: 1, Survivors: 2, BytesCopied: 64}}}
	}
	cases := []struct {
		name string
		o    *Outcome
		want string
	}{
		{"deopts exceed guard checks", jitStats(func(s *jit.Stats) { s.Deopts = 60 }), "deopts"},
		{"compiled+aborted exceed started", jitStats(func(s *jit.Stats) { s.TracesAborted = 5 }), "aborted"},
		{"invalidations exceed compiled", jitStats(func(s *jit.Stats) { s.Invalidations = 2 }), "invalidations"},
		{"iterations without traces", jitStats(func(s *jit.Stats) { s.TracesCompiled = 0; s.TracesStarted = 1; s.TracesAborted = 1 }), "compiled iterations"},
		{"bad decref", &Outcome{Leg: "rc", HeapKind: gc.RefCount,
			Snap: interp.Snapshot{Heap: gc.Stats{Allocations: 10, Increfs: 5, Decrefs: 5, BadDecrefs: 1}}}, "RC <= 0"},
		{"decrefs exceed births", &Outcome{Leg: "rc", HeapKind: gc.RefCount,
			Snap: interp.Snapshot{Heap: gc.Stats{Allocations: 2, Increfs: 3, Decrefs: 9}}}, "imbalance"},
		{"survivors without collections", &Outcome{Leg: "gen", HeapKind: gc.Generational,
			Snap: interp.Snapshot{Heap: gc.Stats{Survivors: 4, BytesCopied: 64}}}, "survivors"},
	}
	for _, c := range cases {
		bad := CheckInvariants(c.o)
		found := false
		for _, m := range bad {
			if strings.Contains(m, c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: not flagged (got %v)", c.name, bad)
		}
	}

	// A healthy outcome must pass clean.
	ok := &Outcome{Leg: "ok", HeapKind: gc.Generational,
		JIT:  &jit.Stats{TracesStarted: 1, TracesCompiled: 1, GuardChecks: 10, Deopts: 1, CompiledIters: 5},
		Snap: interp.Snapshot{Heap: gc.Stats{Allocations: 100, MinorGCs: 2, Survivors: 5, BytesCopied: 200}}}
	if bad := CheckInvariants(ok); len(bad) != 0 {
		t.Errorf("healthy outcome flagged: %v", bad)
	}
}

// TestAccounting checks the category-vs-phase instruction identity and
// that it flags a mismatch.
func TestAccounting(t *testing.T) {
	if bad := CheckAccounting([]uint64{3, 4}, []uint64{5, 2}); len(bad) != 0 {
		t.Errorf("balanced accounting flagged: %v", bad)
	}
	if bad := CheckAccounting([]uint64{3, 4}, []uint64{5, 3}); len(bad) == 0 {
		t.Error("unbalanced accounting not flagged")
	}
}

// TestAccountingIntegration runs a generated program through the cycle-
// attributing SimpleCore and audits the real breakdown: every category
// count must be reflected in the phase totals and the C-library share must
// stay within the whole.
func TestAccountingIntegration(t *testing.T) {
	for _, mode := range []runtime.Mode{runtime.CPython, runtime.PyPyJIT} {
		cfg := runtime.DefaultConfig(mode)
		cfg.Warmups = 0
		cfg.Measures = 1
		r, err := runtime.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run("acct.py", `def hot(n):
    acc = 0
    for i in xrange(n):
        acc = acc + (i % 7) * 3 + len(str(i))
    return acc
print(hot(1200))
print("%06.2f" % (1.5,))
`)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		bd := res.Breakdown
		var catInstrs, phaseInstrs []uint64
		for c := core.Category(0); c < core.NumCategories; c++ {
			catInstrs = append(catInstrs, bd.Instrs[c])
		}
		for p := core.Phase(0); p < core.NumPhases; p++ {
			phaseInstrs = append(phaseInstrs, bd.PhaseInstrs[p])
		}
		for _, bad := range CheckAccounting(catInstrs, phaseInstrs) {
			t.Errorf("%v: %s", mode, bad)
		}
		if bd.TotalInstrs() == 0 {
			t.Fatalf("%v: empty breakdown", mode)
		}
		if bd.CLibInstrs > bd.TotalInstrs() {
			t.Errorf("%v: clib instrs %d exceed total %d", mode, bd.CLibInstrs, bd.TotalInstrs())
		}
	}
}

// TestChaosSoak runs the chaos-mode matrix: seeded fault injection on
// every leg but the baseline, with the graceful-degradation contract —
// injected faults surface only as a well-formed MemoryError after a
// prefix of the baseline's output, or not at all. Zero divergences and
// zero invariant failures required; at least one fault must actually
// fire, or the soak proved nothing.
func TestChaosSoak(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	rep, err := RunWith(Options{Seed: 1, N: n, FaultRate: 500})
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("chaos soak failures:\n%s", rep.Summary())
	}
	if rep.Stats.FaultsFired == 0 {
		t.Fatal("no faults fired; the soak exercised nothing")
	}
	if rep.Stats.Deopts == 0 {
		t.Error("no JIT deopts observed under fault injection")
	}
	t.Logf("chaos: %d faults, %d deopts (%d error-forced), %d aborted compiles",
		rep.Stats.FaultsFired, rep.Stats.Deopts, rep.Stats.ErrorDeopts, rep.Stats.TracesAborted)
}

// TestChaosFaultScheduleDeterministic: the same seed must replay the same
// fault schedule — the property that makes chaos failures debuggable.
func TestChaosFaultScheduleDeterministic(t *testing.T) {
	run := func() *Report {
		rep, err := RunWith(Options{Seed: 7, N: 5, FaultRate: 200})
		if err != nil {
			t.Fatalf("RunWith: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Fatalf("same seed, different schedules: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.FaultsFired == 0 {
		t.Fatal("no faults fired at rate 200")
	}
}

// TestLegWallClockGuard: every leg executes under a hard wall-clock
// deadline derived from interp.Limits.Deadline, so a wedged leg raises
// TimeoutError (and fails the oracle) instead of hanging the harness.
func TestLegWallClockGuard(t *testing.T) {
	leg := Leg{
		Name:     "cpython",
		Heap:     gc.DefaultRefCountConfig(),
		Deadline: 20 * time.Millisecond,
	}
	src := "i = 0\nwhile i < 1000000000:\n    i = i + 1\n"
	o, err := Execute(leg, "wedge.py", src, 1<<62) // budget out of the way
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(o.Err, "TimeoutError") || !strings.Contains(o.Err, "deadline") {
		t.Fatalf("wedged leg must trip the wall-clock guard, got %q", o.Err)
	}
}

// TestChaosDiffFlagsWedgedLeg: a guard trip on a faulted leg is reported
// as a wedge, never absorbed by the graceful-degradation contract.
func TestChaosDiffFlagsWedgedLeg(t *testing.T) {
	base := &Outcome{Leg: "cpython", Output: "1\n"}
	got := &Outcome{Leg: "pypy-jit+chaos", Err: "TimeoutError: execution deadline of 30s exceeded"}
	d := chaosDiff(base, got)
	if !strings.Contains(d, "wedged leg") {
		t.Fatalf("want wedged-leg divergence, got %q", d)
	}
}

// TestArmedLegPair: the default and quickening matrices each carry an
// armed refcount leg and an armed generational+JIT leg whose twins exist;
// on a program that raises, an armed leg really observes events and
// reproduces its twin's counters; and armedDiff flags each kind of
// departure (a sink that saw nothing, a bytecode, a refcount, any other
// counter).
func TestArmedLegPair(t *testing.T) {
	for name, legs := range map[string][]Leg{"default": Legs(nil, nil), "quicken": QuickenLegs()} {
		names := map[string]Leg{}
		var rc, gen int
		for _, l := range legs {
			names[l.Name] = l
		}
		for _, l := range legs {
			if l.ArmedTwin == "" {
				continue
			}
			twin, ok := names[l.ArmedTwin]
			if !ok || twin.ArmedTwin != "" || twin.Heap != l.Heap || twin.JIT != l.JIT {
				t.Errorf("%s: armed leg %s has no identical unarmed twin %q", name, l.Name, l.ArmedTwin)
			}
			if l.JIT != nil && l.Heap.Kind == gc.Generational {
				gen++
			} else {
				rc++
			}
		}
		if rc != 1 || gen != 1 {
			t.Errorf("%s: %d refcount + %d gen-GC/JIT armed legs, want 1 + 1", name, rc, gen)
		}
	}

	src := `def hot(n):
    acc = []
    for i in xrange(n):
        acc.append((i, str(i)))
    return acc[n]
print(hot(1500))
`
	for _, twin := range []Leg{Legs(nil, nil)[0], QuickenLegs()[len(QuickenLegs())-2]} {
		armed := twin
		armed.Name, armed.ArmedTwin = twin.Name+"+armed", twin.Name
		a, err := Execute(twin, "armed.py", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Execute(armed, "armed.py", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(a.Err, "IndexError") || a.Events != 0 || b.Events == 0 {
			t.Fatalf("%s: err %q, events unarmed %d armed %d", twin.Name, a.Err, a.Events, b.Events)
		}
		if d := diffOutcomes(a, b) + armedDiff(a, b); d != "" {
			t.Errorf("%s: arming the sink changed the run: %s", twin.Name, d)
		}
		for want, doctor := range map[string]func(o *Outcome){
			"no events":        func(o *Outcome) { o.Events = 0 },
			"bytecodes":        func(o *Outcome) { o.Snap.Bytecodes++ },
			"net refcounts":    func(o *Outcome) { o.Snap.Heap.Increfs++ },
			"runtime counters": func(o *Outcome) { o.Snap.Heap.Allocations++ },
		} {
			bad := *b
			doctor(&bad)
			if d := armedDiff(a, &bad); !strings.Contains(d, want) {
				t.Errorf("%s: doctored %q not flagged: %q", twin.Name, want, d)
			}
		}
	}
}

// TestParallelReportMatchesSerial: checking seeds on several workers
// changes nothing a caller sees. The serial and parallel reports over a
// MutateJIT-broken range (divergences, shrinking and reproducer writes
// included) are byte-identical, and Progress counts up in seed order.
// Of seeds 92-99 only 92 and 99 diverge under the broken guards, and 92
// takes ~5x longer to shrink, so a merge in completion order rather
// than seed order shows.
func TestParallelReportMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two 8-program runs with two shrinks each in -short mode")
	}
	dir := t.TempDir()
	run := func(procs int) string {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		var progress []int
		rep, err := RunWith(Options{
			Seed:      92,
			N:         8,
			Nurseries: []uint64{4 << 20},
			MutateJIT: func(c *jit.Config) { c.BrokenGuards = true },
			CorpusDir: dir,
			Progress:  func(done int) { progress = append(progress, done) },
		})
		if err != nil {
			t.Fatalf("RunWith: %v", err)
		}
		for i, done := range progress {
			if done != i+1 {
				t.Fatalf("GOMAXPROCS=%d: Progress calls %v, want 1..8 in order", procs, progress)
			}
		}
		if len(rep.ReproPaths) != 2 || rep.Divergences[0].Minimized == "" {
			t.Fatalf("GOMAXPROCS=%d: %d reproducers, want a shrunk one for each of seeds 92 and 99", procs, len(rep.ReproPaths))
		}
		out, _ := json.Marshal(rep)
		return string(out)
	}
	serial, parallel := run(1), run(4)
	if serial != parallel {
		t.Fatalf("parallel report differs from serial:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestMatrixSelection: Options name one leg matrix or fail; no mode is
// silently dropped for another.
func TestMatrixSelection(t *testing.T) {
	mutate := func(*jit.Config) {}
	for _, c := range []struct {
		name string
		opts Options
		want []Leg // nil: an error
	}{
		{"default", Options{}, Legs(nil, nil)},
		{"nurseries", Options{Nurseries: []uint64{64 << 10}}, Legs([]uint64{64 << 10}, nil)},
		{"quicken", Options{Quicken: true}, QuickenLegs()},
		{"faults", Options{Seed: 3, FaultRate: 200}, ChaosLegs(3, 200)},
		{"faults-seed", Options{Seed: 3, FaultRate: 200, FaultSeed: 9}, ChaosLegs(9, 200)},
		{"progstore", Options{Seed: 5, Progstore: true}, ProgstoreLegs(5)},
		{"quicken+faults", Options{Quicken: true, FaultRate: 200}, nil},
		{"progstore+quicken", Options{Progstore: true, Quicken: true}, nil},
		{"progstore+faults", Options{Progstore: true, FaultRate: 200}, nil},
		{"quicken+nurseries", Options{Quicken: true, Nurseries: []uint64{64 << 10}}, nil},
		{"faults+mutate", Options{FaultRate: 200, MutateJIT: mutate}, nil},
	} {
		legs, err := c.opts.Matrix()
		if (err != nil) != (c.want == nil) {
			t.Errorf("%s: Matrix() error %v, want error %v", c.name, err, c.want == nil)
			continue
		}
		if len(legs) != len(c.want) {
			t.Errorf("%s: %d legs, want %d", c.name, len(legs), len(c.want))
			continue
		}
		for i := range legs {
			if legs[i].Name != c.want[i].Name || (legs[i].Chaos == nil) != (c.want[i].Chaos == nil) ||
				(legs[i].Chaos != nil && legs[i].Chaos.Seed != c.want[i].Chaos.Seed) {
				t.Errorf("%s: leg %d is %s, want %s", c.name, i, legs[i].Name, c.want[i].Name)
			}
		}
	}
}
