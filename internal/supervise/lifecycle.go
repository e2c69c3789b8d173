package supervise

import "time"

// LifeState is one stage of a scheduled job's lifecycle. The journey is
// QUEUED → SCHEDULED → RUNNING (→ PREEMPTED → SCHEDULED → RUNNING …) →
// FINISHED; every transition is timestamped on the job and mirrored into
// the allocation-free metrics core.
type LifeState uint8

const (
	// LifeQueued: admitted, waiting in a lane/tenant queue for a grant.
	LifeQueued LifeState = iota
	// LifeScheduled: granted an execution slot; runner being prepared or
	// the parked goroutine being woken.
	LifeScheduled
	// LifeRunning: executing bytecodes on the VM.
	LifeRunning
	// LifePreempted: yielded the slot back at a quantum boundary, or
	// mid-quantum to a higher lane's job; re-queued, goroutine parked
	// with the VM state intact.
	LifePreempted
	// LifeFinished: reply delivered (completion or wedge verdict).
	LifeFinished
	// NumLifeStates is the number of lifecycle states.
	NumLifeStates
)

var lifeNames = [NumLifeStates]string{
	"queued", "scheduled", "running", "preempted", "finished",
}

// String returns the state's wire name.
func (st LifeState) String() string {
	if st < NumLifeStates {
		return lifeNames[st]
	}
	return "unknown"
}

// LifeEvent is one timestamped lifecycle transition, reported on
// JobResult.Lifecycle (capped at maxLifeEvents entries; Preemptions
// stays exact past the cap).
type LifeEvent struct {
	State LifeState
	At    time.Time
}

// note records a lifecycle transition: append to the job's trace (capped),
// accumulate RUNNING time, and mirror the transition — plus the dwell
// time in the state being left — into telemetry. Called under s.mu.
func (j *schedJob) note(s *Sched, st LifeState, at time.Time) {
	if len(j.events) < maxLifeEvents {
		j.events = append(j.events, LifeEvent{State: st, At: at})
	} else if st == LifeFinished {
		// The terminal event always makes the capped trace: a truncated
		// middle is honest, a trace that never finishes is misleading.
		j.events[len(j.events)-1] = LifeEvent{State: st, At: at}
	}
	if !j.lastNoteAt.IsZero() {
		if j.lastState == LifeRunning {
			j.runNanos += at.Sub(j.lastNoteAt).Nanoseconds()
		}
		s.cfg.Metrics.lifeTransition(st, j.lastState, at.Sub(j.lastNoteAt))
	} else {
		s.cfg.Metrics.lifeTransition(st, NumLifeStates, 0)
	}
	j.lastState = st
	j.lastNoteAt = at
}
