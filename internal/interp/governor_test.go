package interp

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/emit"
	"repro/internal/gc"
	"repro/internal/isa"
	"repro/internal/pycode"
	"repro/internal/pyobj"
)

// newLimited builds a VM with the given heap config and limits.
func newLimited(heap gc.Config, l Limits) (*VM, *strings.Builder) {
	var out strings.Builder
	vm := New(emit.NewEngine(isa.NullSink{}), heap, &out)
	vm.SetLimits(l)
	return vm, &out
}

// errKind returns the PyError kind of err, or "" if it is not a PyError.
func errKind(err error) string {
	var pe *PyError
	if errors.As(err, &pe) {
		return pe.Kind
	}
	return ""
}

// TestStepBudgetExactBoundary pins the budget's off-by-one behaviour: a
// budget of exactly the program's bytecode count completes; one less trips
// TimeoutError on the dispatch back-edge.
func TestStepBudgetExactBoundary(t *testing.T) {
	src := `
acc = 0
for i in xrange(50):
    acc = acc + i
print(acc)
`
	// Measure the program's exact bytecode count.
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{})
	if err := vm.RunSource("<measure>", src); err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	total := vm.Stats.Bytecodes
	if total == 0 {
		t.Fatal("no bytecodes counted")
	}

	vm, out := newLimited(gc.DefaultRefCountConfig(), Limits{MaxSteps: total})
	if err := vm.RunSource("<exact>", src); err != nil {
		t.Fatalf("budget == program length should complete, got: %v", err)
	}
	if !strings.Contains(out.String(), "1225") {
		t.Fatalf("wrong output: %q", out.String())
	}

	vm, _ = newLimited(gc.DefaultRefCountConfig(), Limits{MaxSteps: total - 1})
	err := vm.RunSource("<short>", src)
	if errKind(err) != "TimeoutError" {
		t.Fatalf("budget == length-1: want TimeoutError, got %v", err)
	}

	// The governor re-arms per RunCode: the same VM must be reusable, and
	// a sweep of tiny budgets must always terminate with TimeoutError,
	// never a hang or panic.
	for budget := uint64(1); budget <= 60; budget++ {
		vm.SetLimits(Limits{MaxSteps: budget})
		if err := vm.RunSource("<sweep>", src); errKind(err) != "TimeoutError" {
			t.Fatalf("budget %d: want TimeoutError, got %v", budget, err)
		}
	}
}

// TestStepBudgetMessageNamesSite checks the TimeoutError pinpoints where
// the budget died (frame, pc, opcode).
func TestStepBudgetMessageNamesSite(t *testing.T) {
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{MaxSteps: 10})
	err := vm.RunSource("<loop>", "i = 0\nwhile True:\n    i = i + 1\n")
	if errKind(err) != "TimeoutError" {
		t.Fatalf("want TimeoutError, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "step budget of 10 bytecodes") || !strings.Contains(msg, "pc=") {
		t.Errorf("message should name budget and site: %q", msg)
	}
}

// TestHeapLimitRaisesMemoryError: an allocation bomb against a heap cap
// surfaces as MemoryError under both memory managers, and the VM survives
// to run the next program.
func TestHeapLimitRaisesMemoryError(t *testing.T) {
	bomb := `
l = []
while True:
    l.append("0123456789abcdef0123456789abcdef")
`
	for _, cfg := range []gc.Config{gc.DefaultRefCountConfig(), gc.DefaultGenConfig(64 << 10)} {
		vm, _ := newLimited(cfg, Limits{MaxHeapBytes: 1 << 20})
		err := vm.RunSource("<bomb>", bomb)
		if errKind(err) != "MemoryError" {
			t.Fatalf("%v heap: want MemoryError, got %v", cfg.Kind, err)
		}
		// The heap must still be usable after the OOM unwound.
		vm.SetLimits(Limits{})
		var after strings.Builder
		vm.Stdout = &after
		if err := vm.RunSource("<after>", "print(sum([1, 2, 3]))"); err != nil {
			t.Fatalf("%v heap: VM unusable after MemoryError: %v", cfg.Kind, err)
		}
		if after.String() != "6\n" {
			t.Fatalf("%v heap: wrong output after recovery: %q", cfg.Kind, after.String())
		}
	}
}

// TestRecursionLimitInsideCHelper: the configured depth cap fires even
// when frames are pushed from inside a C helper (map calling back into
// Python), raising RecursionError rather than overflowing the Go stack.
func TestRecursionLimitInsideCHelper(t *testing.T) {
	src := `
def boom(x):
    return boom(x + 1)

print(map(boom, [1, 2, 3]))
`
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{MaxRecursionDepth: 50})
	err := vm.RunSource("<rec>", src)
	if errKind(err) != "RecursionError" {
		t.Fatalf("want RecursionError, got %v", err)
	}
	if !strings.Contains(err.Error(), "maximum recursion depth (50) exceeded") {
		t.Errorf("message should carry the configured limit: %q", err.Error())
	}
	// Depth bookkeeping must have unwound fully.
	if err := vm.RunSource("<after>", "print(1)"); err != nil {
		t.Fatalf("VM unusable after RecursionError: %v", err)
	}
}

// TestDefaultRecursionValveKeepsRuntimeError: without a governor limit the
// built-in valve still reports CPython 2.7's RuntimeError.
func TestDefaultRecursionValveKeepsRuntimeError(t *testing.T) {
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{})
	err := vm.RunSource("<rec>", "def f(x):\n    return f(x)\nf(0)\n")
	if errKind(err) != "RuntimeError" {
		t.Fatalf("want RuntimeError from the default valve, got %v", err)
	}
}

// TestDeadlineFiresDuringGC: an allocation-bound program spends most of
// its time collecting; the deadline must still fire because GC entry
// polls it.
func TestDeadlineFiresDuringGC(t *testing.T) {
	src := `
l = []
i = 0
while True:
    l.append([i, i + 1, i + 2])
    if len(l) > 512:
        l = []
    i = i + 1
`
	vm, _ := newLimited(gc.DefaultGenConfig(32<<10), Limits{Deadline: 20 * time.Millisecond})
	start := time.Now()
	err := vm.RunSource("<gc-bound>", src)
	if errKind(err) != "TimeoutError" {
		t.Fatalf("want TimeoutError, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", el)
	}
}

// TestOutputLimitExactBoundary: output of exactly the cap passes; one byte
// over raises OutputLimitError, through both the print statement and the
// print builtin.
func TestOutputLimitExactBoundary(t *testing.T) {
	// "abc\n" is 4 bytes per iteration, 10 iterations = 40 bytes.
	src := `
for i in xrange(10):
    print("abc")
`
	vm, out := newLimited(gc.DefaultRefCountConfig(), Limits{MaxOutputBytes: 40})
	if err := vm.RunSource("<fit>", src); err != nil {
		t.Fatalf("output == cap should pass, got: %v", err)
	}
	if len(out.String()) != 40 {
		t.Fatalf("want 40 bytes, got %d", len(out.String()))
	}

	vm, out = newLimited(gc.DefaultRefCountConfig(), Limits{MaxOutputBytes: 39})
	err := vm.RunSource("<over>", src)
	if errKind(err) != "OutputLimitError" {
		t.Fatalf("want OutputLimitError, got %v", err)
	}
	// Nothing after the cap may have been written.
	if n := len(out.String()); n > 39 {
		t.Fatalf("wrote %d bytes past a 39-byte cap", n)
	}
}

// TestInternalErrorCarriesCrashState: a Go-level panic inside the
// interpreter (an unknown opcode here) is converted at the RunCode
// boundary into an InternalError with the frame stack captured during
// unwinding — never re-panicked into the host.
func TestInternalErrorCarriesCrashState(t *testing.T) {
	code := &pycode.Code{
		Name:     "broken",
		Filename: "<broken>",
		Code: []pycode.Instr{
			{Op: pycode.Opcode(250)}, // not a real opcode
		},
	}
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{})
	err := vm.RunCode(code)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want InternalError, got %v", err)
	}
	if len(ie.State.Frames) == 0 {
		t.Fatal("crash state should capture the unwound frame stack")
	}
	if ie.State.Frames[0].Func != "broken" {
		t.Errorf("innermost frame: want broken, got %+v", ie.State.Frames[0])
	}
	if len(ie.Stack) == 0 {
		t.Error("Go stack trace missing from InternalError")
	}
	// The VM survives and the next program runs clean.
	var out strings.Builder
	vm.Stdout = &out
	if err := vm.RunSource("<after>", "print(2 + 2)"); err != nil {
		t.Fatalf("VM unusable after InternalError: %v", err)
	}
	if out.String() != "4\n" {
		t.Fatalf("wrong output after recovery: %q", out.String())
	}
}

// TestGovernorDisabledIsInert: zero limits never interfere, whatever the
// program does.
// TestStepBudgetSaturatesNearMaxUint64: a step budget near ^uint64(0)
// must behave as "unlimited", not wrap the scheduled check threshold.
// Before the saturating add, stepBase + MaxSteps + 1 wrapped to a value
// at or behind the current iteration count, forcing the governor slow
// path on every single dispatch — and, after a prior run advanced
// stepBase, could park the threshold where a budget that should be armed
// never fired.
func TestStepBudgetSaturatesNearMaxUint64(t *testing.T) {
	src := "print(sum(range(100)))\n"
	for _, steps := range []uint64{
		math.MaxUint64,
		math.MaxUint64 - 1,
		math.MaxUint64 / 2,
	} {
		vm, out := newLimited(gc.DefaultRefCountConfig(), Limits{MaxSteps: steps})
		if err := vm.RunSource("<huge>", src); err != nil {
			t.Fatalf("MaxSteps=%d: %v", steps, err)
		}
		if out.String() != "4950\n" {
			t.Fatalf("MaxSteps=%d: output %q", steps, out.String())
		}
		// The threshold must sit saturated at (or effectively at) the
		// far end, never behind the iterations already executed.
		if vm.nextCheck <= vm.iterations {
			t.Fatalf("MaxSteps=%d: nextCheck %d not past iterations %d",
				steps, vm.nextCheck, vm.iterations)
		}
		// A second run on the same VM (stepBase now nonzero) must stay
		// healthy too — this is the case that could wrap into the
		// disarmed regime.
		if err := vm.RunSource("<huge2>", src); err != nil {
			t.Fatalf("MaxSteps=%d second run: %v", steps, err)
		}
		if vm.nextCheck <= vm.iterations {
			t.Fatalf("MaxSteps=%d second run: nextCheck %d not past iterations %d",
				steps, vm.nextCheck, vm.iterations)
		}
	}

	// A saturated budget must still coexist with a live deadline poll:
	// the deadline schedules the nearer threshold and still trips.
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{
		MaxSteps: math.MaxUint64,
		Deadline: time.Millisecond,
	})
	err := vm.RunSource("<spin>", "i = 0\nwhile True:\n    i = i + 1\n")
	if errKind(err) != "TimeoutError" {
		t.Fatalf("deadline under saturated step budget: want TimeoutError, got %v", err)
	}
}

func TestGovernorDisabledIsInert(t *testing.T) {
	if (Limits{}).Enabled() {
		t.Fatal("zero Limits must report disabled")
	}
	vm, out := newLimited(gc.DefaultRefCountConfig(), Limits{})
	if vm.nextCheck != ^uint64(0) {
		t.Fatalf("disabled governor must park nextCheck, got %d", vm.nextCheck)
	}
	if err := vm.RunSource("<plain>", "print(sum(range(100)))"); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.String() != "4950\n" {
		t.Fatalf("output: %q", out.String())
	}
}

// TestCrashSnapshotBounded: however deep the crash and however large the
// panic value and Go stack, the assembled InternalError stays a bounded
// report — the crash *reporting* path must never be its own memory
// exhaustion (a worker pool quarantines crashed VMs by shipping this
// error around).
func TestCrashSnapshotBounded(t *testing.T) {
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{})
	code := &pycode.Code{
		Name:     strings.Repeat("f", 4096), // absurd function name
		Filename: "<deep>",
		Code:     []pycode.Instr{{Op: pycode.NOP}},
	}
	f := &pyobj.Frame{Code: code}
	const depth = 5000
	for i := 0; i < depth; i++ {
		vm.noteUnwind(f)
	}
	hugeCause := strings.Repeat("x", 1<<20)
	hugeStack := []byte(strings.Repeat("goroutine 1 [running]\n", 1<<15))
	ie := vm.internalError(hugeCause, hugeStack)

	if len(ie.State.Frames) != maxUnwindNotes {
		t.Fatalf("frames: want cap %d, got %d", maxUnwindNotes, len(ie.State.Frames))
	}
	if ie.State.Depth != depth {
		t.Errorf("true depth: want %d, got %d", depth, ie.State.Depth)
	}
	if n := len(ie.State.Frames[0].Func); n > maxFuncRepr+len("...[truncated]") {
		t.Errorf("frame func name not capped: %d bytes", n)
	}
	if n := len(ie.Stack); n > maxStackBytes+64 {
		t.Errorf("Go stack not capped: %d bytes", n)
	}
	repr, ok := ie.Cause.(string)
	if !ok {
		t.Fatalf("huge non-error cause should be rendered to string, got %T", ie.Cause)
	}
	if len(repr) > maxCauseRepr+32 {
		t.Errorf("cause repr not capped: %d bytes", len(repr))
	}
	if n := len(ie.Error()); n > maxCauseRepr+1024 {
		t.Errorf("Error() rendering not bounded: %d bytes", n)
	}
	// The snapshot buffers reset for the next run.
	if len(vm.unwound) != 0 || vm.unwoundTotal != 0 {
		t.Error("unwind buffers not reset after snapshot")
	}
}

// TestCrashSnapshotKeepsErrorIdentity: a small error panic value passes
// through uncapped so errors.Is/As through Unwrap keep working.
func TestCrashSnapshotKeepsErrorIdentity(t *testing.T) {
	sentinel := errors.New("sentinel bug")
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{})
	ie := vm.internalError(sentinel, nil)
	if !errors.Is(ie, sentinel) {
		t.Fatal("small error cause must survive for errors.Is")
	}
}

// ---- Step-slice yield hook (scheduler preemption points) ----

// TestYieldUnlimitedJobStillParks is the regression test for the
// "unlimited jobs never yield" bug: with no limits armed, nextCheck used
// to stay ^uint64(0) and a job could never be preempted. The slice
// quantum must install its own nextCheck term independent of Limits.
func TestYieldUnlimitedJobStillParks(t *testing.T) {
	src := `
acc = 0
for i in xrange(2000):
    acc = acc + i
print(acc)
`
	vm, out := newLimited(gc.DefaultRefCountConfig(), Limits{}) // no limits at all
	var yields int
	vm.SetYield(64, nil, func() time.Duration {
		yields++
		return 0
	})
	if vm.nextCheck == ^uint64(0) {
		t.Fatal("quantum armed but nextCheck still unreachable")
	}
	if err := vm.RunSource("<unlimited>", src); err != nil {
		t.Fatalf("run: %v", err)
	}
	if yields == 0 {
		t.Fatal("unlimited job never reached a yield point")
	}
	if !strings.Contains(out.String(), "1999000") {
		t.Fatalf("wrong output: %q", out.String())
	}
	// Disarming restores the unreachable threshold for a limitless VM.
	vm.SetYield(0, nil, nil)
	if vm.nextCheck != ^uint64(0) {
		t.Fatalf("disarmed unlimited VM: nextCheck = %d", vm.nextCheck)
	}
}

// TestYieldActuallyParksGoroutine: the yield hook may block — the VM's
// goroutine parks with the Python frame stack live — and execution
// resumes exactly where it left off when the hook returns.
func TestYieldActuallyParksGoroutine(t *testing.T) {
	src := `
acc = 0
for i in xrange(500):
    acc = acc + i
print(acc)
`
	vm, out := newLimited(gc.DefaultRefCountConfig(), Limits{})
	parked := make(chan struct{})
	resume := make(chan struct{})
	first := true
	vm.SetYield(64, nil, func() time.Duration {
		if first {
			first = false
			parked <- struct{}{}
			<-resume
		}
		return 0
	})
	done := make(chan error, 1)
	go func() { done <- vm.RunSource("<park>", src) }()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("run finished without yielding: %v", err)
	}
	// The job is parked mid-loop; nothing should complete until resumed.
	select {
	case err := <-done:
		t.Fatalf("parked job completed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !strings.Contains(out.String(), "124750") {
		t.Fatalf("wrong output after park/resume: %q", out.String())
	}
}

// TestYieldCreditsDeadline: time spent parked by the scheduler must not
// count against the job's own wall-clock budget — the hook's returned
// parked duration is credited to deadlineAt.
func TestYieldCreditsDeadline(t *testing.T) {
	src := `
acc = 0
for i in xrange(3000):
    acc = acc + i
print(acc)
`
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{Deadline: 40 * time.Millisecond})
	once := true
	vm.SetYield(64, nil, func() time.Duration {
		if once {
			once = false
			// Park well past the job's whole deadline, then report it.
			d := 80 * time.Millisecond
			time.Sleep(d)
			return d
		}
		return 0
	})
	if err := vm.RunSource("<credit>", src); err != nil {
		t.Fatalf("parked time charged against deadline: %v", err)
	}

	// Control: same park without the credit (hook lies and returns 0)
	// must trip the deadline — proving the credit is what saved the run
	// above, not timing slack.
	vm2, _ := newLimited(gc.DefaultRefCountConfig(), Limits{Deadline: 40 * time.Millisecond})
	once2 := true
	vm2.SetYield(64, nil, func() time.Duration {
		if once2 {
			once2 = false
			time.Sleep(80 * time.Millisecond)
		}
		return 0
	})
	if err := vm2.RunSource("<nocredit>", src); errKind(err) != "TimeoutError" {
		t.Fatalf("uncredited park should trip deadline, got %v", err)
	}
}

// TestYieldCoexistsWithStepBudget: slicing must not change step-budget
// semantics — the budget still trips at the same boundary with a quantum
// armed, and yields keep happening up to that point.
func TestYieldCoexistsWithStepBudget(t *testing.T) {
	src := `
acc = 0
for i in xrange(50):
    acc = acc + i
print(acc)
`
	vm, _ := newLimited(gc.DefaultRefCountConfig(), Limits{})
	if err := vm.RunSource("<measure>", src); err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	total := vm.Stats.Bytecodes

	for _, q := range []uint64{1, 7, 64} {
		vm, out := newLimited(gc.DefaultRefCountConfig(), Limits{MaxSteps: total})
		yields := 0
		vm.SetYield(q, nil, func() time.Duration { yields++; return 0 })
		if err := vm.RunSource("<exact>", src); err != nil {
			t.Fatalf("quantum %d: budget == length should complete, got %v", q, err)
		}
		if !strings.Contains(out.String(), "1225") {
			t.Fatalf("quantum %d: wrong output %q", q, out.String())
		}
		if yields == 0 {
			t.Fatalf("quantum %d: no yields in a %d-bytecode run", q, total)
		}

		vm, _ = newLimited(gc.DefaultRefCountConfig(), Limits{MaxSteps: total - 1})
		vm.SetYield(q, nil, func() time.Duration { return 0 })
		if err := vm.RunSource("<short>", src); errKind(err) != "TimeoutError" {
			t.Fatalf("quantum %d: budget-1 want TimeoutError, got %v", q, err)
		}
	}
}

// TestYieldUrgentAtPreemptStride: with the quantum unreachable, a raised
// urgent flag still calls the hook, at the next preemption check and
// every preemptStride bytecodes while it stays up; once lowered, the
// hook is silent again. Without a flag an exclusive VM pays nothing: its
// threshold stays unreachable.
func TestYieldUrgentAtPreemptStride(t *testing.T) {
	src := `
acc = 0
for i in xrange(5000):
    acc = acc + i
print(acc)
`
	vm, out := newLimited(gc.DefaultRefCountConfig(), Limits{})
	vm.SetYield(^uint64(0), nil, func() time.Duration { return 0 })
	if vm.nextCheck != ^uint64(0) {
		t.Fatalf("saturated quantum, no urgent flag: nextCheck = %d", vm.nextCheck)
	}

	var urgent atomic.Bool
	var at []uint64
	vm.SetYield(^uint64(0), &urgent, func() time.Duration {
		at = append(at, vm.iterations)
		if len(at) == 3 {
			urgent.Store(false)
		}
		return 0
	})
	urgent.Store(true)
	if err := vm.RunSource("<urgent>", src); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "12497500") {
		t.Fatalf("wrong output: %q", out.String())
	}
	if vm.iterations < 4*preemptStride {
		t.Fatalf("program too short to test the stride: %d bytecodes", vm.iterations)
	}
	want := []uint64{preemptStride, 2 * preemptStride, 3 * preemptStride}
	if len(at) != len(want) {
		t.Fatalf("hook ran at bytecodes %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("hook ran at bytecodes %v, want %v", at, want)
		}
	}
}
