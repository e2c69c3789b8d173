// Package runtime assembles complete MiniPy run-time configurations — the
// paper's four systems under test — and drives the measurement protocol.
//
//   - CPython: bytecode interpreter + reference counting.
//   - PyPyNoJIT: bytecode interpreter + generational GC.
//   - PyPyJIT: tracing JIT + generational GC.
//   - V8Like: eager, bulkier JIT + generational GC (the v8-flavoured
//     runtime used to generalize the findings in Figs 6, 9, 16).
//
// A Runner executes a program with the paper's protocol (2 warmup runs, 3
// measured runs) against a chosen core model and returns the attribution
// breakdown, CPI, cache and GC statistics.
package runtime

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/faults"
	"repro/internal/gc"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/jit"
	"repro/internal/pycode"
	"repro/internal/pycompile"
	"repro/internal/uarch"
)

// Mode identifies a run-time configuration.
type Mode uint8

// Run-time modes.
const (
	CPython Mode = iota
	PyPyNoJIT
	PyPyJIT
	V8Like
	NumModes
)

var modeNames = [NumModes]string{"cpython", "pypy-nojit", "pypy-jit", "v8like"}

// String returns the mode's name.
func (m Mode) String() string {
	if m < NumModes {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode resolves a mode name.
func ParseMode(s string) (Mode, error) {
	for m := Mode(0); m < NumModes; m++ {
		if modeNames[m] == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("runtime: unknown mode %q (want cpython, pypy-nojit, pypy-jit, v8like)", s)
}

// UsesJIT reports whether the mode compiles hot loops.
func (m Mode) UsesJIT() bool { return m == PyPyJIT || m == V8Like }

// UsesGenGC reports whether the mode uses the generational collector.
func (m Mode) UsesGenGC() bool { return m != CPython }

// CoreKind selects the simulated core model.
type CoreKind uint8

// Core models.
const (
	// SimpleCore attributes cycles to overhead categories (Fig 4).
	SimpleCore CoreKind = iota
	// OOOCore models the out-of-order pipeline (Figs 7-9).
	OOOCore
	// CountOnly skips timing simulation (fast functional runs).
	CountOnly
)

// Config assembles a full runtime-under-test.
type Config struct {
	Mode Mode
	Core CoreKind
	// Uarch is the machine configuration (Table I defaults).
	Uarch uarch.Config
	// NurseryBytes overrides the generational nursery size (default
	// 4 MB, PyPy's default).
	NurseryBytes uint64
	// Warmups and Measures set the protocol (paper: 2 and 3).
	Warmups  int
	Measures int
	// Stdout receives program output; nil discards it.
	Stdout io.Writer
	// MaxBytecodes bounds each run (safety valve; 0 = none).
	MaxBytecodes uint64
	// Limits is the resource governor: hard caps on steps, heap, call
	// depth, wall-clock time, and output volume. Each cap surfaces as an
	// in-language exception; zero values mean unlimited.
	Limits interp.Limits
	// Faults, when non-nil, arms chaos-mode fault injection on the heap
	// and JIT (soak harnesses; nil in normal operation).
	Faults *faults.Injector
	// NoQuicken disables bytecode quickening and inline caches (the
	// zero value keeps them on, the production default). Differential
	// harnesses use it for cold-interpreter reference legs.
	NoQuicken bool
	// NoTier2 caps quickening at tier 1 (monomorphic inline caches
	// only): no polymorphic stubs, no superinstruction fusion, no
	// speculative unboxed-int rewrites. Ablation harnesses use it to
	// isolate the tier-2 contribution; meaningless with NoQuicken set.
	NoTier2 bool
}

// DefaultNursery is PyPy's default nursery size.
const DefaultNursery = 4 << 20

// DefaultConfig returns the standard configuration for a mode.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:         mode,
		Core:         SimpleCore,
		Uarch:        uarch.DefaultConfig(),
		NurseryBytes: DefaultNursery,
		Warmups:      2,
		Measures:     3,
	}
}

// ServingConfig returns the configuration serving layers run jobs under:
// purely functional execution (no timing simulation, no warmups, one
// run). This is what pool workers, reference runs, and soak oracles all
// use — one definition keeps them in lockstep.
func ServingConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.Core = CountOnly
	cfg.Warmups = 0
	cfg.Measures = 1
	return cfg
}

// AttributedServingConfig is ServingConfig with the simple-core
// attribution pipeline armed: the run is slower, but its Result carries
// the paper's full per-category cycle breakdown. Serving layers use it
// for jobs that opt into live overhead attribution.
func AttributedServingConfig(mode Mode) Config {
	cfg := ServingConfig(mode)
	cfg.Core = SimpleCore
	return cfg
}

// Result is the outcome of a measured execution.
type Result struct {
	Mode Mode
	// Breakdown attributes cycles to overhead categories (averaged over
	// the measured runs).
	Breakdown core.Breakdown
	// Cycles and Instrs are per-measured-run averages.
	Cycles uint64
	Instrs uint64
	// CPI is cycles per instruction.
	CPI float64
	// PhaseCPI / PhaseShare report per-phase behaviour (OOO runs).
	PhaseCycles [core.NumPhases]float64
	PhaseInstrs [core.NumPhases]uint64
	// LLCMissRate is the last-level-cache miss rate during measurement.
	LLCMissRate float64
	LLCMisses   uint64
	LLCAccesses uint64
	// L1DMissRate is the L1 data-cache miss rate.
	L1DMissRate float64
	// BranchAccuracy is conditional-branch prediction accuracy (OOO).
	BranchAccuracy float64
	// GC summarizes collector activity over the measured runs.
	GC gc.Stats
	// VM summarizes interpreter activity (whole session, warmups
	// included).
	VM interp.VMStats
	// Heap is the heap's whole-session statistics (warmups included;
	// unlike GC, which is normalized to the measured runs). Supervision
	// layers use it for health probes: refcount balance and
	// free/allocation accounting.
	Heap gc.Stats
	// JIT summarizes compiler activity (whole session).
	JIT *jit.Stats
	// Output is the program output of the final measured run.
	Output string
	// ICSeed is the portable warm-start hint set exported from the VM's
	// quickened state after the run, when the caller opted in via
	// Runner.SetCollectICSeed (the program store's seed-donation path).
	ICSeed *interp.ICSeed
}

// GCShare returns the fraction of cycles attributed to the GC phase.
func (r *Result) GCShare() float64 {
	var t float64
	for _, c := range r.PhaseCycles {
		t += c
	}
	if t == 0 {
		return r.Breakdown.PhasePercent(core.PhaseGC) / 100
	}
	return r.PhaseCycles[core.PhaseGC] / t
}

// Runner executes programs under one configuration. A Runner is not safe
// for concurrent use.
//
// A Runner builds its execution state (engine, VM, heap, core model)
// once and restores it between runs: each execution starts from the
// exact state a freshly built VM would have (same simulated addresses,
// counters and settings), so two sequential runs on one Runner behave
// exactly like runs on two fresh Runners. RunCode restores a used state
// itself; a warm worker pool calls Reset between jobs to do it off the
// next job's critical path.
type Runner struct {
	cfg Config
	st  *runState
	// used reports that st has run since it was built or restored.
	used bool
	// Step-slice hook armed on the state at every run (SetYield).
	yieldQuantum uint64
	yieldUrgent  *atomic.Bool
	yieldFn      func() time.Duration
	// Portable IC seed plumbing (SetICSeed / SetCollectICSeed), armed
	// at every run like the yield hook.
	icSeed      *interp.ICSeed
	collectSeed bool
}

// runState is the machinery for one execution: engine, VM, optional JIT,
// and core model. The engine, VM and output buffer live as long as the
// Runner; the JIT and core model are rebuilt for each run.
type runState struct {
	eng    *emit.Engine
	vm     *interp.VM
	jit    *jit.JIT
	simple *uarch.SimpleCore
	ooo    *uarch.OOOCore
	out    *outBuffer
}

// NewRunner validates cfg and returns a Runner.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Uarch.Validate(); err != nil {
		return nil, err
	}
	if cfg.Warmups < 0 || cfg.Measures < 1 {
		return nil, fmt.Errorf("runtime: need at least one measured run")
	}
	if cfg.NurseryBytes == 0 {
		cfg.NurseryBytes = DefaultNursery
	}
	if err := gc.Validate(heapConfig(cfg)); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg}, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// SetLimits replaces the resource limits applied to subsequent runs (a
// worker pool arms per-job budgets on a warm Runner).
func (r *Runner) SetLimits(l interp.Limits) { r.cfg.Limits = l }

// SetFaults installs a chaos-mode fault injector for subsequent runs
// (nil disables); every run arms the current injector on the heap and
// the JIT. Injectors are stateful and per-execution; soak harnesses
// install a fresh one before each job.
func (r *Runner) SetFaults(in *faults.Injector) { r.cfg.Faults = in }

// SetYield installs a cooperative step-slice hook on subsequent runs:
// every quantum bytecodes, or within ~1k bytecodes of urgent (may be
// nil) being set, the VM calls fn from the governor slow path, which may
// park the goroutine (see interp.VM.SetYield). quantum 0 or fn nil
// disarms.
func (r *Runner) SetYield(quantum uint64, urgent *atomic.Bool, fn func() time.Duration) {
	r.yieldQuantum, r.yieldUrgent, r.yieldFn = quantum, urgent, fn
}

// SetICSeed arms (nil: disarms) a portable IC seed for subsequent runs:
// the VM warm-starts its inline caches from a donor's observed shapes
// (see interp.ICSeed — advisory only, semantics can never change).
// Worker pools must disarm between jobs: an armed seed binds to whatever
// program runs next.
func (r *Runner) SetICSeed(s *interp.ICSeed) { r.icSeed = s }

// SetCollectICSeed opts subsequent runs into exporting their quickened
// state as a portable IC seed (Result.ICSeed). Off by default: the
// export walks every materialized code unit, which is pure waste for
// callers that discard it.
func (r *Runner) SetCollectICSeed(on bool) { r.collectSeed = on }

// Reset puts the Runner's state back to pristine for the next run: the
// VM is rewound in place (interp.VM.Reset), not rebuilt; the output
// buffer is emptied and the core model replaced (the JIT is replaced
// when the next run starts).
// Calling it between jobs gives a warm worker two guarantees: no state
// crosses from one job to the next, and the next job skips the restore
// on its critical path. The first call builds the state.
func (r *Runner) Reset() {
	if r.st == nil {
		r.st = r.buildState()
	} else {
		r.restore(r.st)
	}
	r.used = false
}

// buildState constructs the execution state from the configuration.
func (r *Runner) buildState() *runState {
	st := &runState{out: &outBuffer{}}
	st.eng = emit.NewEngine(isa.NullSink{})
	st.vm = interp.New(st.eng, heapConfig(r.cfg), st.out)
	r.configure(st)
	return st
}

// restore rewinds a used state to the one buildState returns.
func (r *Runner) restore(st *runState) {
	st.vm.Reset()
	st.jit = nil
	if cap(st.out.buf) > maxRetainedOutput {
		st.out.buf = nil
	}
	st.out.buf, st.out.keep = st.out.buf[:0], false
	r.configure(st)
}

// maxRetainedOutput bounds the output buffer a restore keeps for reuse.
const maxRetainedOutput = 64 << 10

// configure applies the configuration's fixed VM settings and a cold
// core model to a pristine state.
func (r *Runner) configure(st *runState) {
	cfg := r.cfg
	st.vm.SetQuicken(!cfg.NoQuicken)
	if cfg.NoTier2 {
		st.vm.SetPolyICs(false)
		st.vm.SetFusion(false)
		st.vm.SetIntFast(false)
	}
	st.vm.MaxBytecodes = cfg.MaxBytecodes
	st.simple, st.ooo = nil, nil
	switch cfg.Core {
	case SimpleCore:
		st.simple = uarch.NewSimpleCore(cfg.Uarch)
		st.eng.SetSink(st.simple)
	case OOOCore:
		st.ooo = uarch.NewOOOCore(cfg.Uarch)
		st.eng.SetSink(st.ooo)
	case CountOnly:
		st.eng.SetSink(isa.NullSink{})
	}
}

// takeState returns the execution state for one RunCode call, pristine
// and armed with the current per-run settings: limits, yield hook, IC
// seed, fault injector (on the heap and the JIT) and a new JIT for JIT
// modes.
func (r *Runner) takeState() *runState {
	if r.st == nil || r.used {
		r.Reset()
	}
	r.used = true
	st, cfg := r.st, r.cfg
	st.out.tee = cfg.Stdout
	st.vm.SetLimits(cfg.Limits)
	st.vm.SetYield(r.yieldQuantum, r.yieldUrgent, r.yieldFn)
	st.vm.SetICSeed(r.icSeed)
	st.vm.Heap.SetFaults(cfg.Faults)
	switch cfg.Mode {
	case PyPyJIT:
		jc := jit.DefaultConfig()
		jc.Faults = cfg.Faults
		st.jit = jit.New(st.vm, jc)
	case V8Like:
		jc := jit.V8LikeConfig()
		jc.Faults = cfg.Faults
		st.jit = jit.New(st.vm, jc)
	}
	return st
}

// heapConfig derives the heap configuration a Config implies.
func heapConfig(cfg Config) gc.Config {
	if cfg.Mode.UsesGenGC() {
		return gc.DefaultGenConfig(cfg.NurseryBytes)
	}
	return gc.DefaultRefCountConfig()
}

// discard is a sink for program output when none is wanted.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// outBuffer collects the final run's output.
type outBuffer struct {
	buf  []byte
	tee  io.Writer
	keep bool
}

func (o *outBuffer) Write(p []byte) (int, error) {
	if o.keep {
		o.buf = append(o.buf, p...)
	}
	if o.tee != nil {
		return o.tee.Write(p)
	}
	return len(p), nil
}

// Run compiles and executes src under the measurement protocol.
func (r *Runner) Run(name, src string) (*Result, error) {
	code, err := pycompile.CompileSource(name, src)
	if err != nil {
		return nil, err
	}
	return r.RunCode(code)
}

// RunCode executes a compiled program under the measurement protocol: the
// VM, heap, JIT, and caches persist across runs (so warmup trains the JIT
// and warms the caches); statistics cover only the measured runs.
func (r *Runner) RunCode(code *pycode.Code) (*Result, error) {
	cfg := r.cfg
	st := r.takeState()
	vm, theJIT, simple, ooo, out := st.vm, st.jit, st.simple, st.ooo, st.out

	// Warmup runs: train JIT counters, caches, and predictors.
	for i := 0; i < cfg.Warmups; i++ {
		vm.ResetRand()
		if err := vm.RunCode(code); err != nil {
			return nil, fmt.Errorf("warmup run %d: %w", i+1, err)
		}
	}

	// Reset statistics, keeping all learned state warm.
	if simple != nil {
		simple.ResetStats()
	}
	if ooo != nil {
		ooo.ResetStats()
	}
	gcBefore := vm.Heap.Stats

	// Measured runs.
	for i := 0; i < cfg.Measures; i++ {
		vm.ResetRand()
		out.keep = i == cfg.Measures-1
		out.buf = out.buf[:0]
		if err := vm.RunCode(code); err != nil {
			return nil, fmt.Errorf("measured run %d: %w", i+1, err)
		}
	}

	res := &Result{Mode: cfg.Mode, Output: string(out.buf)}
	n := uint64(cfg.Measures)
	switch {
	case simple != nil:
		bd := *simple.Breakdown()
		bd.Scale(n)
		res.Breakdown = bd
		res.Cycles = bd.TotalCycles()
		res.Instrs = bd.TotalInstrs()
		res.CPI = bd.CPI()
		h := simple.Hierarchy()
		res.LLCMissRate = h.L3.Stats.MissRate()
		res.LLCMisses = h.L3.Stats.Misses / n
		res.LLCAccesses = h.L3.Stats.Accesses / n
		res.L1DMissRate = h.L1D.Stats.MissRate()
		for p := core.Phase(0); p < core.NumPhases; p++ {
			res.PhaseCycles[p] = float64(bd.PhaseCycles[p])
			res.PhaseInstrs[p] = bd.PhaseInstrs[p]
		}
	case ooo != nil:
		res.Cycles = ooo.Cycles() / n
		res.Instrs = ooo.Instrs() / n
		res.CPI = ooo.CPI()
		bd := *ooo.Breakdown()
		bd.Scale(n)
		res.Breakdown = bd
		h := ooo.Hierarchy()
		res.LLCMissRate = h.L3.Stats.MissRate()
		res.LLCMisses = h.L3.Stats.Misses / n
		res.LLCAccesses = h.L3.Stats.Accesses / n
		res.L1DMissRate = h.L1D.Stats.MissRate()
		res.BranchAccuracy = ooo.Predictor().Stats.CondAccuracy()
		for p := core.Phase(0); p < core.NumPhases; p++ {
			res.PhaseCycles[p] = ooo.PhaseCycles(p) / float64(n)
			res.PhaseInstrs[p] = ooo.PhaseInstrs(p) / n
		}
	}

	// GC activity during the measured runs only.
	after := vm.Heap.Stats
	res.GC = gc.Stats{
		Allocations:   (after.Allocations - gcBefore.Allocations) / n,
		BytesAlloc:    (after.BytesAlloc - gcBefore.BytesAlloc) / n,
		MinorGCs:      (after.MinorGCs - gcBefore.MinorGCs) / n,
		MajorGCs:      (after.MajorGCs - gcBefore.MajorGCs) / n,
		BytesCopied:   (after.BytesCopied - gcBefore.BytesCopied) / n,
		Survivors:     (after.Survivors - gcBefore.Survivors) / n,
		Frees:         (after.Frees - gcBefore.Frees) / n,
		BarrierHits:   (after.BarrierHits - gcBefore.BarrierHits) / n,
		BigAllocs:     (after.BigAllocs - gcBefore.BigAllocs) / n,
		FreelistReuse: (after.FreelistReuse - gcBefore.FreelistReuse) / n,
	}
	res.VM = vm.StatsSnapshot().VM
	res.Heap = after
	if r.collectSeed {
		res.ICSeed = vm.ExportICSeed(code)
	}
	if theJIT != nil {
		st := theJIT.StatsSnapshot()
		res.JIT = &st
	}
	return res, nil
}

// RunFunctional executes the program once with no simulation, returning
// its output (for correctness tests and example tooling).
func RunFunctional(mode Mode, name, src string, stdout io.Writer) error {
	cfg := DefaultConfig(mode)
	cfg.Core = CountOnly
	cfg.Warmups = 0
	cfg.Measures = 1
	cfg.Stdout = stdout
	r, err := NewRunner(cfg)
	if err != nil {
		return err
	}
	_, err = r.Run(name, src)
	return err
}
