// Package supervise is the serving layer over the MiniPy runtimes: one
// scheduler (Sched) that runs submitted jobs on warm, reusable VMs under
// per-job resource budgets and survives anything a job does. Limit trips
// surface as classified errors; InternalError panics and
// statistics-corrupting runs poison the Runner, which is dropped — the
// next grant builds a fresh one; wedged jobs are detected by a heartbeat
// watchdog and answered without taking the scheduler down. In front sits
// admission control: a bounded queue with deterministic load shedding and
// a RetryAfter hint, plus graceful drain for shutdown. The exclusive
// worker pool is a configuration of the same scheduler (NewPool).
//
// cmd/pyserve exposes it over HTTP/JSON; the soak harness's sched stack
// (internal/harness, cmd/pyfuzz -stack sched) attacks it with injected
// wedges and forced preemption and verifies the invariant: faults never
// take the scheduler down, never cross-contaminate another job's output,
// and always surface as a well-formed error class.
package supervise

import (
	"errors"
	"fmt"

	"repro/internal/interp"
)

// Class is the supervisor's job-outcome classification. The first seven
// classes mirror cmd/pyrun's exit statuses exactly (the supervisor and
// the CLI share one mapping); the remainder are supervision-level
// outcomes a single-process run cannot produce.
type Class uint8

// Job outcome classes.
const (
	// ClassOK: clean exit.
	ClassOK Class = iota
	// ClassError: an ordinary Python error (or a compile error).
	ClassError
	// ClassInternal: a VM bug surfaced as interp.InternalError. The
	// Runner that produced it is poisoned and dropped.
	ClassInternal
	// ClassTimeout: the step budget or wall-clock deadline tripped.
	ClassTimeout
	// ClassMemory: the heap limit tripped (MemoryError).
	ClassMemory
	// ClassRecursion: the call-depth limit tripped (RecursionError).
	ClassRecursion
	// ClassOutput: the output-byte limit tripped (OutputLimitError).
	ClassOutput
	// ClassWedged: the job failed to produce a result before the
	// watchdog fired; its Runner was retired.
	ClassWedged
	// ClassShed: admission control rejected the job (queue depth or
	// heap-reservation watermark); retry after the result's RetryAfter.
	ClassShed
	// NumClasses is the number of classes.
	NumClasses
)

var classNames = [NumClasses]string{
	"ok", "error", "internal", "timeout", "memory", "recursion",
	"output-limit", "wedged", "shed",
}

// String returns the class's wire name (the pyserve exitClass field).
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass resolves a wire name.
func ParseClass(s string) (Class, error) {
	for c := Class(0); c < NumClasses; c++ {
		if classNames[c] == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("supervise: unknown class %q", s)
}

// ExitCode maps a class to the pyrun exit-status contract: 0 success, 1
// Python error, 3 internal VM error, 4 step/deadline limit, 5 memory
// limit, 6 recursion limit, 7 output limit. The supervision-only classes
// extend the sequence: 8 wedged, 9 shed. (2 remains the CLI usage-error
// code and is not a job class.)
func (c Class) ExitCode() int {
	switch c {
	case ClassOK:
		return 0
	case ClassError:
		return 1
	case ClassInternal:
		return 3
	case ClassTimeout:
		return 4
	case ClassMemory:
		return 5
	case ClassRecursion:
		return 6
	case ClassOutput:
		return 7
	case ClassWedged:
		return 8
	case ClassShed:
		return 9
	}
	return 1
}

// Executed reports whether a job with this outcome reached a Runner and
// ran (possibly to a limit trip or a watchdog condemnation). Only
// ClassShed means the body provably never started — the one outcome a
// result-dedup layer must NOT record, because a replay after a shed is a
// first execution, not a duplicate.
func (c Class) Executed() bool { return c != ClassShed }

// Classify maps a runner error to its class: nil is ClassOK, an
// InternalError is ClassInternal, governor-limit PyErrors map to their
// dedicated classes, and everything else (ordinary Python errors,
// compile errors) is ClassError.
func Classify(err error) Class {
	if err == nil {
		return ClassOK
	}
	var ie *interp.InternalError
	if errors.As(err, &ie) {
		return ClassInternal
	}
	var pe *interp.PyError
	if errors.As(err, &pe) {
		switch pe.Kind {
		case "TimeoutError":
			return ClassTimeout
		case "MemoryError":
			return ClassMemory
		case "RecursionError":
			return ClassRecursion
		case "OutputLimitError":
			return ClassOutput
		}
	}
	return ClassError
}
