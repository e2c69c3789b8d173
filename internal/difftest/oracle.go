package difftest

import (
	"fmt"
	"strings"
)

// Divergence records a cross-mode disagreement: the leg, the program, and
// a description of the first observed difference from the cpython
// baseline. Minimized holds the shrunk reproducer (empty if shrinking
// failed to preserve the divergence).
type Divergence struct {
	Seed      uint64
	Leg       string
	Desc      string
	Program   string
	Minimized string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("seed %d, leg %s: %s", d.Seed, d.Leg, d.Desc)
}

// diffOutcomes describes the first difference between the baseline and
// another leg's outcome, or "" if they agree.
func diffOutcomes(base, got *Outcome) string {
	if base.Err != got.Err {
		return fmt.Sprintf("error mismatch: baseline %q, got %q", base.Err, got.Err)
	}
	if base.Output != got.Output {
		return firstLineDiff("output", base.Output, got.Output)
	}
	if base.Globals != got.Globals {
		return firstLineDiff("globals", base.Globals, got.Globals)
	}
	return ""
}

// armedDiff describes the first way an armed leg's bookkeeping departs
// from its unarmed twin's, or "" if arming the sink changed nothing but
// the sink.
func armedDiff(twin, got *Outcome) string {
	netRC := func(o *Outcome) int64 { return int64(o.Snap.Heap.Increfs) - int64(o.Snap.Heap.Decrefs) }
	switch {
	case got.Events == 0:
		return "armed leg's sink observed no events"
	case twin.Snap.Bytecodes != got.Snap.Bytecodes:
		return fmt.Sprintf("bytecodes: unarmed %d, armed %d", twin.Snap.Bytecodes, got.Snap.Bytecodes)
	case netRC(twin) != netRC(got):
		return fmt.Sprintf("net refcounts: unarmed %+d, armed %+d", netRC(twin), netRC(got))
	case twin.Snap != got.Snap:
		return fmt.Sprintf("runtime counters: unarmed %+v, armed %+v", twin.Snap, got.Snap)
	case twin.JIT != nil && *twin.JIT != *got.JIT:
		return fmt.Sprintf("jit counters: unarmed %+v, armed %+v", *twin.JIT, *got.JIT)
	}
	return ""
}

// reusedDiff describes the first way a reused-VM leg's outcome departs
// from its fresh-VM twin's beyond what diffOutcomes compares, or "".
func reusedDiff(twin, got *Outcome) string {
	if twin.Snap != got.Snap {
		return fmt.Sprintf("runtime counters: fresh VM %+v, reused VM %+v", twin.Snap, got.Snap)
	}
	return ""
}

// firstLineDiff pinpoints the first differing line between two multi-line
// strings.
func firstLineDiff(what, a, b string) string {
	al := strings.Split(a, "\n")
	bl := strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("%s line %d: baseline %q, got %q", what, i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%s length: baseline %d lines, got %d lines", what, len(al), len(bl))
}

// ProgramStats aggregates observability counters across one program's
// legs: how many faults the chaos injectors fired and how the JITs
// degraded (the soak's proof that fallback paths actually ran).
type ProgramStats struct {
	FaultsFired   uint64
	Deopts        uint64
	ErrorDeopts   uint64
	TracesAborted uint64
}

func (s *ProgramStats) add(o *Outcome) {
	s.FaultsFired += o.FaultsFired
	if j := o.JIT; j != nil {
		s.Deopts += j.Deopts
		s.ErrorDeopts += j.ErrorDeopts
		s.TracesAborted += j.TracesAborted
	}
}

// CheckProgram executes src under every leg and compares each against the
// first (baseline) leg. It returns one Divergence per disagreeing leg
// (without reproducer minimization — the caller shrinks) plus any
// invariant violations observed on the way. Legs with Chaos set are
// compared under chaosDiff's graceful-degradation contract instead of
// exact agreement.
func CheckProgram(legs []Leg, name, src string, budget uint64) (divs []Divergence, invs []string, stats ProgramStats, err error) {
	base, err := Execute(legs[0], name, src, budget)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("%s: baseline: %w", name, err)
	}
	if harnessTripped(base) {
		// The budget and the wall-clock guard are harness artifacts, not
		// program semantics: JIT legs count interpreted bytecodes only,
		// and wall-clock trip points vary with machine load — comparing
		// a tripped run across legs would fabricate divergences.
		return nil, nil, stats, nil
	}
	invs = append(invs, CheckInvariants(base)...)
	if strings.HasPrefix(base.Err, "InternalError") {
		invs = append(invs, "[cpython] baseline internal error: "+base.Err)
	}
	stats.add(base)
	outcomes := map[string]*Outcome{legs[0].Name: base}
	for _, leg := range legs[1:] {
		got, xerr := Execute(leg, name, src, budget)
		if xerr != nil {
			return nil, nil, stats, fmt.Errorf("%s: leg %s: %w", name, leg.Name, xerr)
		}
		stats.add(got)
		if budgetTripped(got) {
			continue
		}
		if leg.Chaos == nil && deadlineTripped(got) {
			// A wall-clock trip on an unfaulted leg means slow, not
			// wedged (the baseline would have tripped too on a genuinely
			// long program): skip like a budget trip. Chaos legs fall
			// through so chaosDiff can flag the trip as a wedge.
			continue
		}
		invs = append(invs, CheckInvariants(got)...)
		outcomes[leg.Name] = got
		var d string
		if leg.Chaos != nil {
			d = chaosDiff(base, got)
		} else {
			d = diffOutcomes(base, got)
		}
		if twin := outcomes[leg.ArmedTwin]; d == "" && twin != nil {
			d = armedDiff(twin, got)
		}
		if twin := outcomes[leg.ReusedTwin]; d == "" && twin != nil {
			d = reusedDiff(twin, got)
		}
		if d != "" {
			divs = append(divs, Divergence{Leg: leg.Name, Desc: d, Program: src})
		}
	}
	for i := range invs {
		invs[i] = name + ": " + invs[i]
	}
	return divs, invs, stats, nil
}

// budgetTripped reports whether the outcome aborted on the harness's
// bytecode budget rather than on program semantics.
func budgetTripped(o *Outcome) bool {
	return strings.Contains(o.Err, "bytecode budget exceeded")
}

// deadlineTripped reports whether the outcome aborted on the per-leg
// wall-clock guard (exec.go). The trip point depends on machine speed,
// so outside chaos mode it is a harness artifact like the budget.
func deadlineTripped(o *Outcome) bool {
	return strings.Contains(o.Err, "execution deadline")
}

// harnessTripped reports whether the outcome aborted on any harness
// bound — bytecode budget or wall-clock guard — rather than on program
// semantics.
func harnessTripped(o *Outcome) bool {
	return budgetTripped(o) || deadlineTripped(o)
}

// DivergesOn reports whether src still diverges on the given leg versus
// the baseline leg — the property the shrinker preserves. Execution errors
// (compile failures, budget blowups) count as "does not diverge" so the
// shrinker never locks onto a different bug.
func DivergesOn(baseline, leg Leg, name, src string, budget uint64) bool {
	base, err := Execute(baseline, name, src, budget)
	if err != nil || harnessTripped(base) {
		return false
	}
	got, err := Execute(leg, name, src, budget)
	if err != nil || harnessTripped(got) {
		return false
	}
	return diffOutcomes(base, got) != ""
}
