package interp

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/gc"
	"repro/internal/pycode"
	"repro/internal/pyobj"
)

// Limits is the resource governor's configuration: the canonical
// api.Limits budget set. Clamping and validation live in
// api.Limits.Normalize; the governor just enforces whatever it is given.
// Zero values mean unlimited.
//
// Governor checks deliberately emit NO micro-events: enforcement is host
// bookkeeping, not simulated Python work, and must not distort the paper's
// overhead-category attribution (see EXPERIMENTS.md).
type Limits = api.Limits

// deadlineStride is how many bytecodes run between wall-clock polls. At
// interpreter speeds this bounds deadline overshoot to well under a
// millisecond while keeping time.Now off the dispatch fast path.
const deadlineStride = 8192

// preemptStride is how many bytecodes run between polls of a yield
// hook's urgent flag: how far a running job gets, at most, between a
// scheduler asking it to give up its slot and the yield that does.
const preemptStride = 1024

// SetLimits installs the resource limits. Call before RunCode; the step
// and wall-clock budgets are (re-)armed at each RunCode entry.
func (vm *VM) SetLimits(l Limits) {
	vm.limits = l
	if l.MaxRecursionDepth > 0 {
		vm.recursionLimit = l.MaxRecursionDepth
	} else {
		vm.recursionLimit = maxRecursion
	}
	vm.Heap.SetLimit(l.MaxHeapBytes)
	vm.scheduleGovernor()
}

// Limits returns the installed resource limits.
func (vm *VM) Limits() Limits { return vm.limits }

// SetYield installs a cooperative step-slice hook: every quantum
// bytecodes the governor slow path calls fn, which may block — parking
// the VM's goroutine while the Python frame stack stays live in the VM —
// and returns how long the VM was parked. The parked duration is
// credited to the wall-clock deadline so scheduler delay is never
// charged against the job's own budget. The quantum arms its own
// nextCheck term independent of Limits, so a job with no step budget
// (nextCheck otherwise ^uint64(0)) still reaches yield points and can be
// preempted. A non-nil urgent flag is polled every preemptStride
// bytecodes, and fn runs early, mid-quantum, while it is set: the
// scheduler raises it to take the slot back for a higher-priority job.
// The VM only reads the flag; clearing it is the hook's business.
// quantum 0 or fn nil disarms slicing.
func (vm *VM) SetYield(quantum uint64, urgent *atomic.Bool, fn func() time.Duration) {
	if quantum == 0 || fn == nil {
		vm.sliceSteps, vm.urgent, vm.yieldFn = 0, nil, nil
	} else {
		vm.sliceSteps, vm.urgent, vm.yieldFn = quantum, urgent, fn
	}
	vm.sliceBase = vm.iterations
	vm.scheduleGovernor()
}

// armGovernor starts a RunCode invocation's step and wall-clock budgets.
func (vm *VM) armGovernor() {
	vm.stepBase = vm.iterations
	if d := vm.limits.Deadline; d > 0 {
		vm.deadlineAt = time.Now().Add(d)
	} else {
		vm.deadlineAt = time.Time{}
	}
	vm.outBytes = 0
	vm.sliceBase = vm.iterations
	vm.scheduleGovernor()
}

// scheduleGovernor computes nextCheck, the absolute iteration count at
// which dispatch must run the governor slow path. Keeping a single
// precomputed threshold means the dispatch hot path pays one compare for
// the whole governor, however many limits are armed.
func (vm *VM) scheduleGovernor() {
	next := ^uint64(0)
	if l := vm.limits.MaxSteps; l != 0 {
		// Saturating add: with MaxSteps near ^uint64(0) the sum wraps,
		// which would either park the threshold behind the current
		// iteration count (slow-path entry on every dispatch) or disarm
		// a budget that should be armed. A saturated threshold means
		// "unreachable", which is exactly what a 2^64-step budget is.
		c := vm.stepBase + l
		if c < vm.stepBase {
			c = ^uint64(0)
		} else if c != ^uint64(0) {
			c++
		}
		if c < next {
			next = c
		}
	}
	if !vm.deadlineAt.IsZero() {
		if c := vm.iterations + deadlineStride; c < next {
			next = c
		}
	}
	if vm.sliceSteps != 0 {
		// Same saturating discipline as the step budget: a quantum near
		// ^uint64(0) must read as "unreachable", not wrap behind the
		// current iteration count.
		c := vm.sliceBase + vm.sliceSteps
		if c < vm.sliceBase {
			c = ^uint64(0)
		}
		if c < next {
			next = c
		}
		if vm.urgent != nil {
			if c := vm.iterations + preemptStride; c < next {
				next = c
			}
		}
	}
	vm.nextCheck = next
}

// maybeYield runs the step-slice hook if the quantum has elapsed or the
// urgent flag is up, crediting parked time to the deadline. Shared by
// both governor slow paths; emits no micro-events (scheduling is host
// bookkeeping and must not distort overhead-category attribution).
func (vm *VM) maybeYield() {
	if vm.sliceSteps == 0 {
		return
	}
	if vm.iterations-vm.sliceBase < vm.sliceSteps && (vm.urgent == nil || !vm.urgent.Load()) {
		return
	}
	parked := vm.yieldFn()
	if parked > 0 && !vm.deadlineAt.IsZero() {
		vm.deadlineAt = vm.deadlineAt.Add(parked)
	}
	vm.sliceBase = vm.iterations
}

// governorCheck is the dispatch-loop slow path, entered when iterations
// crosses nextCheck: enforce the step budget, poll the deadline, and
// reschedule.
func (vm *VM) governorCheck(f *pyobj.Frame, op pycode.Opcode) {
	if l := vm.limits.MaxSteps; l != 0 && vm.iterations-vm.stepBase > l {
		Raise("TimeoutError", "step budget of %d bytecodes exceeded in %s at pc=%d (op=%s)",
			l, f.Code.Name, f.PC, op.Dequicken())
	}
	vm.maybeYield()
	vm.pollDeadline()
	vm.scheduleGovernor()
}

// governorCheckJIT is governorCheck for compiled-trace iteration
// accounting, where no frame/opcode context is cheap to name.
func (vm *VM) governorCheckJIT() {
	if l := vm.limits.MaxSteps; l != 0 && vm.iterations-vm.stepBase > l {
		Raise("TimeoutError", "step budget of %d bytecodes exceeded in compiled code", l)
	}
	vm.maybeYield()
	vm.pollDeadline()
	vm.scheduleGovernor()
}

// pollDeadline raises TimeoutError once the wall-clock deadline passes.
// Installed as the heap's tick callback so collections check it too: an
// allocation-bound hostile program spends most of its time in GC.
func (vm *VM) pollDeadline() {
	if vm.deadlineAt.IsZero() || time.Now().Before(vm.deadlineAt) {
		return
	}
	Raise("TimeoutError", "execution deadline of %v exceeded", vm.limits.Deadline)
}

// raiseMemoryError is the heap's OOM handler: allocation failure —
// whether from the heap limit, arena exhaustion, or an injected fault —
// surfaces as a Python MemoryError, never a host panic.
func (vm *VM) raiseMemoryError(need uint64) {
	Raise("MemoryError", "out of memory: allocation of %d bytes failed", need)
}

// raiseRecursion reports a blown call depth. The governor's configured
// limit raises RecursionError; the VM's built-in valve keeps CPython
// 2.7's RuntimeError.
func (vm *VM) raiseRecursion() {
	if vm.limits.MaxRecursionDepth > 0 {
		Raise("RecursionError", "maximum recursion depth (%d) exceeded", vm.recursionLimit)
	}
	Raise("RuntimeError", "maximum recursion depth exceeded")
}

// writeOut writes program output through the output-byte cap.
func (vm *VM) writeOut(s string) {
	if l := vm.limits.MaxOutputBytes; l != 0 {
		vm.outBytes += uint64(len(s))
		if vm.outBytes > l {
			Raise("OutputLimitError", "output limit of %d bytes exceeded", l)
		}
	}
	fmt.Fprint(vm.Stdout, s)
}

// ---- Crash isolation ----

// FrameInfo is one entry of a crash snapshot's frame stack.
type FrameInfo struct {
	Func string
	PC   int
	Op   string
}

func (fi FrameInfo) String() string {
	return fmt.Sprintf("%s at pc=%d (op=%s)", fi.Func, fi.PC, fi.Op)
}

// CrashState is the VM state captured when an internal failure unwinds:
// enough to diagnose the crash without a debugger attached to the host.
type CrashState struct {
	// Frames is the Python frame stack at the point of failure,
	// innermost first (capped at maxUnwindNotes entries, each with a
	// bounded function-name rendering).
	Frames []FrameInfo
	// Depth is the true unwound call depth, which may exceed
	// len(Frames) when the snapshot cap clipped the stack.
	Depth     int
	Bytecodes uint64
	Heap      gc.Stats
}

// InternalError wraps a Go panic that escaped the interpreter: a runtime
// bug, never program-visible Python semantics. It carries the original
// panic value, the Go stack at the panic site, and a VM state snapshot,
// so converting the panic to an error loses nothing.
type InternalError struct {
	// Cause is the original panic value.
	Cause interface{}
	// Stack is the Go stack trace captured at recovery.
	Stack []byte
	// State snapshots the VM at the moment of failure.
	State CrashState
}

func (e *InternalError) Error() string {
	msg := fmt.Sprintf("InternalError: %v", e.Cause)
	if len(e.State.Frames) > 0 {
		msg += fmt.Sprintf(" [in %s; depth=%d, %d bytecodes executed]",
			e.State.Frames[0], e.State.Depth, e.State.Bytecodes)
	}
	return msg
}

// Unwrap exposes an underlying error cause to errors.Is/As.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Cause.(error); ok {
		return err
	}
	return nil
}

// Crash-snapshot size caps. A worker that crashes while 4000 Python
// frames deep would otherwise snapshot thousands of FrameInfos, render a
// megabyte Go stack, and potentially hold an arbitrarily large panic
// value — the crash *report* must never become its own memory exhaustion.
const (
	// maxUnwindNotes caps the crash snapshot's frame stack.
	maxUnwindNotes = 32
	// maxFuncRepr caps a snapshot frame's function-name rendering.
	maxFuncRepr = 128
	// maxCauseRepr caps the rendered panic value carried by the error.
	maxCauseRepr = 2048
	// maxStackBytes caps the captured Go stack trace (deep Python
	// recursion recurses through Go, so an uncapped trace scales with
	// the crash depth).
	maxStackBytes = 16 << 10
)

// truncRepr bounds s to max bytes, marking the cut.
func truncRepr(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max] + "...[truncated]"
}

// noteUnwind records f in the crash snapshot while a panic unwinds
// through runFrame. By the time RunCode's recover runs, the frame chain
// has already been popped by runFrame's deferred cleanup, so the stack
// must be captured during the unwind itself.
func (vm *VM) noteUnwind(f *pyobj.Frame) {
	vm.unwoundTotal++
	if len(vm.unwound) >= maxUnwindNotes {
		return
	}
	fi := FrameInfo{Func: truncRepr(f.Code.Name, maxFuncRepr), PC: f.PC}
	if f.PC >= 0 && f.PC < len(f.Code.Code) {
		fi.Op = f.Code.Code[f.PC].Op.String()
	}
	vm.unwound = append(vm.unwound, fi)
}

// internalError assembles the InternalError for a recovered panic. Every
// variable-size component is bounded: frames were capped during the
// unwind, the Go stack is clipped to maxStackBytes, and the panic value
// is rendered once into a capped string instead of being retained (a
// huge panic value would otherwise live as long as the error does).
func (vm *VM) internalError(cause interface{}, stack []byte) *InternalError {
	if len(stack) > maxStackBytes {
		stack = append(stack[:maxStackBytes:maxStackBytes], []byte("\n...[stack truncated]")...)
	}
	e := &InternalError{
		Cause: boundCause(cause),
		Stack: stack,
		State: CrashState{
			Frames:    append([]FrameInfo(nil), vm.unwound...),
			Depth:     vm.unwoundTotal,
			Bytecodes: vm.Stats.Bytecodes,
			Heap:      vm.Heap.Stats,
		},
	}
	vm.unwound = vm.unwound[:0]
	vm.unwoundTotal = 0
	return e
}

// boundCause reduces a panic value to a bounded footprint while keeping
// error identity: small error values pass through untouched (so
// errors.Is/As keep working); anything else is rendered to a capped
// string.
func boundCause(cause interface{}) interface{} {
	if err, ok := cause.(error); ok && len(err.Error()) <= maxCauseRepr {
		return err
	}
	return truncRepr(fmt.Sprint(cause), maxCauseRepr)
}
