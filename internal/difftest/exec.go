package difftest

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/emit"
	"repro/internal/faults"
	"repro/internal/gc"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/jit"
	"repro/internal/progstore"
	"repro/internal/pycompile"
	"repro/internal/pyobj"
)

// A Leg is one runtime configuration the oracle executes each program
// under. The cpython leg (refcount heap, no JIT) is the baseline; every
// other leg must agree with it byte for byte.
type Leg struct {
	Name string
	Heap gc.Config
	// JIT, when non-nil, attaches a tracing JIT with this configuration.
	JIT *jit.Config
	// Chaos, when non-nil, enables seeded fault injection on this leg
	// (chaos mode). A faulted leg is held to relaxed-but-strict rules:
	// injected faults may surface only as a well-formed MemoryError whose
	// output is a prefix of the baseline's, or not at all — never as an
	// output divergence, InternalError, or host panic.
	Chaos *ChaosSpec
	// NoQuicken runs this leg on a cold interpreter: no bytecode
	// quickening, no inline caches. The quickened default must agree
	// with it byte for byte.
	NoQuicken bool
	// ICFlushEvery, when nonzero, flushes every inline cache after each
	// n-th cache fill — worst-case guard-invalidation churn. Constant
	// refill/invalidate cycling must never change program behaviour.
	ICFlushEvery uint64
	// NoPoly caps this leg's quickening at tier 1 (monomorphic caches
	// only): no polymorphic stubs, no superinstruction fusion, no
	// speculative unboxed-int rewrites. Tier-2 machinery must be
	// behaviour-invisible against this leg.
	NoPoly bool
	// FuseFlushEvery, when nonzero, de-fuses and re-fuses every atomic
	// superinstruction after each n-th tier-2 fast-path execution —
	// worst-case fusion churn (1 tears every pair down again before its
	// next execution).
	FuseFlushEvery uint64
	// IntFastMaxAbs, when nonzero, caps the unboxed-int fast path's
	// operand magnitude, forcing constant speculative deopts; the
	// deopted generic path must reproduce every result and overflow
	// promotion exactly.
	IntFastMaxAbs int64
	// ProgStore selects the program-store execution path for this leg:
	// "" runs the directly-compiled code; "cold" registers the program
	// in a store and runs the store's shared code object on a cold VM;
	// "seeded" additionally runs a donor VM to completion first and
	// warm-starts the measured VM from its exported portable IC seed
	// (the progstore warm-start path — a seed may fill caches early but
	// must never change behaviour); "evict-churn" registers the program,
	// crowds it out of a capacity-2 store with filler registrations, and
	// re-registers it, so the run executes a recompiled-after-eviction
	// code object.
	ProgStore string
	// ArmedTwin, when set, runs this leg with an observing event sink
	// armed (an isa.CountSink) and names the leg it is otherwise
	// identical to. Emission is instrumentation: beyond the usual
	// agreement with the baseline, the armed leg must reproduce its
	// unarmed twin's bytecode count, net refcounts and every other
	// runtime counter exactly.
	ArmedTwin string
	// ReusedTwin, when set, runs this leg on a reused VM: a prefix
	// program (generated from a seed derived from the program under
	// test, cut off mid-run by a small bytecode budget about half the
	// time) runs first, then interp.VM.Reset restores the VM. It names
	// the fresh-VM leg this one is otherwise identical to, whose
	// outcome, runtime counters included, it must reproduce exactly.
	ReusedTwin string
	// Deadline is the leg's hard wall-clock guard, armed through
	// interp.Limits.Deadline (default DefaultLegDeadline). A wedged leg
	// — looping forever without tripping the bytecode budget, e.g. stuck
	// inside GC under fault injection — raises TimeoutError instead of
	// hanging CI. On a chaos leg a trip fails the oracle as a wedge; on
	// an unfaulted leg it is skipped like a bytecode-budget trip, since
	// the trip point depends on machine speed (a program near the
	// bytecode budget can cross the deadline first on a slow machine).
	Deadline time.Duration
}

// DefaultLegDeadline bounds one leg's execution in wall-clock time. It
// only needs to beat "forever": the oracle treats trips on unfaulted
// legs as harness artifacts, so the exact value never decides an
// outcome.
const DefaultLegDeadline = 30 * time.Second

// DefaultNurseries are the nursery sizes the generational legs sweep. The
// smallest forces frequent minor collections mid-trace; the largest is
// PyPy's default, where most fuzz programs never collect.
var DefaultNurseries = []uint64{64 << 10, 256 << 10, 4 << 20}

// Legs builds the leg matrix: cpython + {pypy-nojit, pypy-jit, v8like} for
// each nursery size. mutate, when non-nil, may edit each JIT config before
// use (the fault-injection hook used by tests).
func Legs(nurseries []uint64, mutate func(*jit.Config)) []Leg {
	if len(nurseries) == 0 {
		nurseries = DefaultNurseries
	}
	legs := []Leg{
		{Name: "cpython", Heap: gc.DefaultRefCountConfig()},
		{Name: "cpython+armed", Heap: gc.DefaultRefCountConfig(), ArmedTwin: "cpython"},
		// Quickening legs: the cold interpreter (inline caches off
		// entirely) and the churn leg (caches flushed after every 32nd
		// fill, so guard invalidation and refill run constantly). Both
		// must match the quickened default bit for bit.
		{Name: "cold-ic", Heap: gc.DefaultRefCountConfig(), NoQuicken: true},
		{Name: "ic-flush", Heap: gc.DefaultRefCountConfig(), ICFlushEvery: 32},
		// Tier-2 legs: monomorphic-only quickening, worst-case
		// superinstruction de-fuse/re-fuse churn, and a capped
		// unboxed-int fast path that deopts on any operand past 2^20.
		// Each must match the full tier-2 default bit for bit.
		{Name: "poly-cold", Heap: gc.DefaultRefCountConfig(), NoPoly: true},
		{Name: "fusion-flush", Heap: gc.DefaultRefCountConfig(), FuseFlushEvery: 16},
		{Name: "intfast-overflow", Heap: gc.DefaultRefCountConfig(), IntFastMaxAbs: 1 << 20},
		// Program-store legs: the store's shared code object cold, the
		// IC-seed warm start, and eviction/recompile churn. All three
		// must match the directly-compiled baseline bit for bit.
		{Name: "progstore-cold", Heap: gc.DefaultRefCountConfig(), ProgStore: "cold"},
		{Name: "progstore-seeded", Heap: gc.DefaultRefCountConfig(), ProgStore: "seeded"},
		{Name: "progstore-evict-churn", Heap: gc.DefaultRefCountConfig(), ProgStore: "evict-churn"},
	}
	var armed, reusedGen Leg
	for _, n := range nurseries {
		nojit := Leg{Name: fmt.Sprintf("pypy-nojit/%dk", n>>10), Heap: gc.DefaultGenConfig(n)}
		legs = append(legs, nojit)
		if reusedGen.Name == "" {
			// One generational leg on a reused VM: pypy-nojit at the
			// first nursery size.
			reusedGen = nojit
			reusedGen.Name, reusedGen.ReusedTwin = "reused-gen", nojit.Name
		}
		for _, m := range []struct {
			name string
			cfg  jit.Config
		}{
			{"pypy-jit", jit.DefaultConfig()},
			{"v8like", jit.V8LikeConfig()},
		} {
			cfg := m.cfg
			if mutate != nil {
				mutate(&cfg)
			}
			leg := Leg{
				Name: fmt.Sprintf("%s/%dk", m.name, n>>10),
				Heap: gc.DefaultGenConfig(n),
				JIT:  &cfg,
			}
			legs = append(legs, leg)
			if armed.Name == "" {
				// One generational + JIT leg armed: pypy-jit at the first
				// nursery size.
				armed = leg
				armed.Name, armed.ArmedTwin = leg.Name+"+armed", leg.Name
			}
		}
	}
	// Reused-VM legs: a prefix program and VM.Reset before the run
	// must leave no trace.
	reused := Leg{Name: "reused", Heap: gc.DefaultRefCountConfig(), ReusedTwin: "cpython"}
	return append(legs, armed, reused, reusedGen)
}

// QuickenLegs builds the quickening-focused leg matrix (pyfuzz -quicken):
// the quickened default as baseline, the cold interpreter, inline-cache
// flush churn at several intervals (1 is the worst case — every fill is
// invalidated before its first hit), and a JIT leg, since compiled traces
// must observe the same guard state the quickened interpreter maintains.
func QuickenLegs() []Leg {
	jitCfg := jit.DefaultConfig()
	return []Leg{
		{Name: "cpython", Heap: gc.DefaultRefCountConfig()},
		{Name: "cpython+armed", Heap: gc.DefaultRefCountConfig(), ArmedTwin: "cpython"},
		{Name: "cold-ic", Heap: gc.DefaultRefCountConfig(), NoQuicken: true},
		{Name: "ic-flush/1", Heap: gc.DefaultRefCountConfig(), ICFlushEvery: 1},
		{Name: "ic-flush/8", Heap: gc.DefaultRefCountConfig(), ICFlushEvery: 8},
		{Name: "ic-flush/64", Heap: gc.DefaultRefCountConfig(), ICFlushEvery: 64},
		{Name: "poly-cold", Heap: gc.DefaultRefCountConfig(), NoPoly: true},
		{Name: "fusion-flush/1", Heap: gc.DefaultRefCountConfig(), FuseFlushEvery: 1},
		{Name: "fusion-flush/16", Heap: gc.DefaultRefCountConfig(), FuseFlushEvery: 16},
		{Name: "intfast-overflow", Heap: gc.DefaultRefCountConfig(), IntFastMaxAbs: 1 << 20},
		{Name: "progstore-cold", Heap: gc.DefaultRefCountConfig(), ProgStore: "cold"},
		{Name: "progstore-seeded", Heap: gc.DefaultRefCountConfig(), ProgStore: "seeded"},
		{Name: "progstore-evict-churn", Heap: gc.DefaultRefCountConfig(), ProgStore: "evict-churn"},
		{Name: "pypy-jit-quick/256k", Heap: gc.DefaultGenConfig(256 << 10), JIT: &jitCfg},
		{Name: "pypy-jit-quick/256k+armed", Heap: gc.DefaultGenConfig(256 << 10), JIT: &jitCfg, ArmedTwin: "pypy-jit-quick/256k"},
	}
}

// Outcome captures everything observable about one execution of a program
// under one leg: its stdout, the error it raised (if any), the canonical
// rendering of its final global bindings, and runtime statistics for the
// invariant checks.
type Outcome struct {
	Leg      string
	HeapKind gc.Kind
	Output   string
	Err      string // "" on clean exit, else the PyError rendering
	Globals  string
	Snap     interp.Snapshot
	JIT      *jit.Stats
	// Events is the number of micro-events an armed leg's sink observed
	// (zero on every other leg).
	Events uint64
	// Faults renders the fault injector's site/fired counts (chaos legs);
	// FaultsFired is the total injected faults this execution.
	Faults      string
	FaultsFired uint64
}

// DefaultBudget bounds each leg's execution. Generated programs finish
// far below it; the margin matters because JIT legs retire compiled
// iterations outside the interpreter's bytecode counter, so a budget trip
// would differ across legs and read as a divergence. CheckProgram skips
// any program that trips it.
const DefaultBudget = 100_000_000

// Execute runs src under one leg and captures its outcome. Compile errors
// are returned as err (the generator never produces them; the shrinker
// filters its candidates through pycompile before calling Execute).
func Execute(leg Leg, name, src string, budget uint64) (*Outcome, error) {
	code, err := pycompile.CompileSource(name, src)
	if err != nil {
		return nil, err
	}
	var counts isa.CountSink
	var sink isa.Sink = isa.NullSink{}
	if leg.ArmedTwin != "" {
		sink = &counts
	}
	var out strings.Builder
	vm := interp.New(emit.NewEngine(sink), leg.Heap, &out)
	if budget == 0 {
		budget = DefaultBudget
	}
	if leg.ReusedTwin != "" {
		runPrefix(vm, name+src)
		out.Reset()
	}
	vm.MaxBytecodes = budget
	if leg.NoQuicken {
		vm.SetQuicken(false)
	}
	if leg.ICFlushEvery != 0 {
		vm.SetICFlushEvery(leg.ICFlushEvery)
	}
	if leg.NoPoly {
		vm.SetPolyICs(false)
		vm.SetFusion(false)
		vm.SetIntFast(false)
	}
	if leg.FuseFlushEvery != 0 {
		vm.SetFuseFlushEvery(leg.FuseFlushEvery)
	}
	if leg.IntFastMaxAbs != 0 {
		vm.SetIntFastMaxAbs(leg.IntFastMaxAbs)
	}
	deadline := leg.Deadline
	if deadline == 0 {
		deadline = DefaultLegDeadline
	}
	vm.SetLimits(interp.Limits{Deadline: deadline})

	if leg.ProgStore != "" {
		// Capacity 2 so the evict-churn leg can crowd the entry out with
		// two fillers; irrelevant to the other store legs.
		store := progstore.New(progstore.Options{Cap: 2})
		p, _, rerr := store.Register(name, src)
		if rerr != nil {
			return nil, rerr
		}
		switch leg.ProgStore {
		case "seeded":
			// Donor run: a throwaway VM executes the program to quiescence
			// and donates its quickened shapes; the measured VM below then
			// starts from the seed, exactly like a fresh worker resolving
			// a warm store entry. The donor's outcome is deliberately
			// discarded — only the seed travels.
			var donorOut strings.Builder
			donor := interp.New(emit.NewEngine(isa.NullSink{}), leg.Heap, &donorOut)
			donor.MaxBytecodes = budget
			donor.SetLimits(interp.Limits{Deadline: deadline})
			_ = donor.RunCode(p.Code)
			store.OfferSeed(p.Ref, donor.ExportICSeed(p.Code))
			if warm, ok := store.Lookup(p.Ref); ok {
				vm.SetICSeed(warm.Seed)
			}
		case "evict-churn":
			// Two fillers evict the program from the capacity-2 store;
			// re-registering recompiles it. The run must behave
			// identically across the evict/recompile cycle.
			if _, _, rerr := store.Register("filler1.py", "pass\n"); rerr != nil {
				return nil, rerr
			}
			if _, _, rerr := store.Register("filler2.py", "x = 0\n"); rerr != nil {
				return nil, rerr
			}
			if p, _, rerr = store.Register(name, src); rerr != nil {
				return nil, rerr
			}
		}
		code = p.Code
	}

	// Chaos mode: one injector per execution (it is stateful), seeded
	// from the leg's spec and the program name so every leg x program
	// pair replays an identical fault schedule.
	var inj *faults.Injector
	if leg.Chaos != nil {
		inj = leg.Chaos.injector(name)
		vm.Heap.SetFaults(inj)
	}

	var theJIT *jit.JIT
	if leg.JIT != nil {
		cfg := *leg.JIT
		cfg.Faults = inj
		theJIT = jit.New(vm, cfg)
	}

	o := &Outcome{Leg: leg.Name, HeapKind: leg.Heap.Kind}
	if rerr := vm.RunCode(code); rerr != nil {
		o.Err = rerr.Error()
	}
	o.Output = out.String()
	o.Globals = CanonGlobals(vm.Globals)
	o.Snap = vm.StatsSnapshot()
	o.Events = counts.Total
	if theJIT != nil {
		st := theJIT.StatsSnapshot()
		o.JIT = &st
	}
	if inj != nil {
		o.Faults = inj.String()
		o.FaultsFired = inj.TotalFired()
	}
	return o, nil
}

// prefixBudget bounds a reused leg's prefix run. Generated programs
// typically finish in about 10^5 bytecodes; the few that run to the
// oracle's budget would otherwise cost seconds per leg.
const prefixBudget = 2_000_000

// runPrefix runs a generated program on vm and restores it with Reset.
// Its seed derives from key; about half the time a small seeded
// bytecode budget cuts it off mid-run, so it leaves live frames, grace
// counters and half-built objects for Reset to undo.
func runPrefix(vm *interp.VM, key string) {
	seed := fnv1a(key)
	vm.MaxBytecodes = prefixBudget
	if seed&1 == 0 {
		vm.MaxBytecodes = 200 + (seed>>1)%20_000
	}
	vm.SetLimits(interp.Limits{Deadline: DefaultLegDeadline})
	if code, err := pycompile.CompileSource("prefix.py", Generate(seed)); err == nil {
		_ = vm.RunCode(code)
	}
	vm.Reset()
}

// CanonGlobals renders a module's final global bindings in a canonical,
// order-independent form: one "name = value" line per binding, sorted by
// name, with functions/classes/modules reduced to their kind (their
// identity is not part of program behaviour).
func CanonGlobals(globals *pyobj.Dict) string {
	if globals == nil {
		return ""
	}
	type binding struct{ name, val string }
	var bs []binding
	globals.ForEach(func(k, v pyobj.Object) {
		ks, ok := k.(*pyobj.Str)
		if !ok {
			return
		}
		// Skip the pre-bound builtins/modules: only program-created
		// state matters, and the prelude is identical across legs.
		switch v.(type) {
		case *pyobj.Builtin, *pyobj.Module:
			return
		}
		bs = append(bs, binding{ks.V, canonValue(v, 0)})
	})
	sort.Slice(bs, func(i, j int) bool { return bs[i].name < bs[j].name })
	var sb strings.Builder
	for _, b := range bs {
		sb.WriteString(b.name)
		sb.WriteString(" = ")
		sb.WriteString(b.val)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// canonValue is pyobj.Repr plus structural rendering for instances (attrs
// sorted by name) and a recursion cap for self-referential containers.
func canonValue(v pyobj.Object, depth int) string {
	if depth > 8 {
		return "<deep>"
	}
	switch o := v.(type) {
	case *pyobj.Instance:
		type attr struct{ name, val string }
		var as []attr
		if o.Dict != nil {
			o.Dict.ForEach(func(k, av pyobj.Object) {
				if ks, ok := k.(*pyobj.Str); ok {
					as = append(as, attr{ks.V, canonValue(av, depth+1)})
				}
			})
		}
		sort.Slice(as, func(i, j int) bool { return as[i].name < as[j].name })
		parts := make([]string, len(as))
		for i, a := range as {
			parts[i] = a.name + "=" + a.val
		}
		return o.Class.Name + "{" + strings.Join(parts, ", ") + "}"
	case *pyobj.List:
		parts := make([]string, len(o.Items))
		for i, e := range o.Items {
			parts[i] = canonValue(e, depth+1)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *pyobj.Tuple:
		parts := make([]string, len(o.Items))
		for i, e := range o.Items {
			parts[i] = canonValue(e, depth+1)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case *pyobj.Dict:
		// Insertion order is part of MiniPy dict semantics (as in
		// CPython 3.7+ / PyPy), so legs must agree on it — do not sort.
		var parts []string
		o.ForEach(func(k, dv pyobj.Object) {
			parts = append(parts, canonValue(k, depth+1)+": "+canonValue(dv, depth+1))
		})
		return "{" + strings.Join(parts, ", ") + "}"
	case *pyobj.Func:
		return "<function>"
	case *pyobj.Class:
		return "<class " + o.Name + ">"
	default:
		return pyobj.Repr(v)
	}
}
