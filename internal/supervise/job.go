package supervise

import (
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/pycode"
	"repro/internal/runtime"
)

// Job is one unit of work: a MiniPy program and the runtime mode to
// execute it under.
type Job struct {
	Name string
	// Src is the program source; Code, when non-nil, is a precompiled
	// program and wins over Src.
	Src  string
	Code *pycode.Code
	Mode runtime.Mode
	// Limits are per-job resource budgets; zero fields inherit the
	// scheduler's DefaultLimits.
	Limits interp.Limits
	// Breakdown requests live overhead attribution: the job runs under
	// the simple-core attribution pipeline (slower, but its result
	// carries the paper's per-category cycle breakdown) instead of the
	// functional fast path.
	Breakdown bool
	// Lane is the priority lane (0 is highest; clamped to the configured
	// lane count, so the one-lane exclusive configuration ignores it).
	Lane int
	// Tenant is the fair-queueing identity: tenants in a lane are served
	// round-robin, one slice each. Empty is a valid (shared) tenant.
	Tenant string
	// ICSeed, when non-nil, warm-starts the Runner's inline caches from a
	// donor's portable seed (program-store warm start). Advisory only: a
	// stale seed costs refills, never semantics.
	ICSeed *interp.ICSeed
	// CollectICSeed opts the job into exporting the run's quickened
	// state as JobResult.ICSeed (the store's seed-donation path).
	CollectICSeed bool
}

// JobResult is everything the scheduler reports about one job.
type JobResult struct {
	Class  Class
	Err    string // error rendering; "" when Class == ClassOK
	Output string
	Mode   runtime.Mode
	Worker int // id of the Runner that ran the job (-1 if none did)
	// Queued and RunTime split the job's latency into admission wait
	// and execution.
	Queued  time.Duration
	RunTime time.Duration
	// RetryAfter is the shed hint (Class == ClassShed only).
	RetryAfter time.Duration
	// Execution statistics (zero on errored runs).
	Bytecodes   uint64
	Allocs      uint64
	MinorGCs    uint64
	MajorGCs    uint64
	ErrorDeopts uint64
	// IC is the run's inline-cache activity (quickened interpreter);
	// zero when quickening is disabled or the run errored.
	IC interp.ICStats
	// ICSeed is the portable warm-start seed exported from the run's
	// quickened state (Job.CollectICSeed runs with a clean exit only).
	ICSeed *interp.ICSeed
	// Breakdown is the job's overhead attribution, present only when the
	// job requested it (Job.Breakdown) and ran to a clean exit.
	Breakdown *core.Breakdown
	// Preemptions counts how many times the job was parked, at a quantum
	// boundary or for a higher lane's job (always 0 in the exclusive
	// configuration).
	Preemptions int
	// Lifecycle is the job's timestamped QUEUED→…→FINISHED transition
	// trace (capped at 32 entries; Preemptions stays exact past the cap).
	Lifecycle []LifeEvent

	// health carries the Runner's post-job probe verdict to finish; not
	// part of the reported result.
	health string
}

// Stats counts scheduler activity. Counter fields are cumulative;
// Workers, Idle, Queued and Resident are a point-in-time snapshot.
type Stats struct {
	Submitted uint64
	Completed uint64 // replies delivered (any class but shed/wedged)
	Shed      uint64
	Wedged    uint64
	Poisoned  uint64 // Runners dropped for internal errors / bad probes
	Recycled  uint64 // planned Runner retirements (job-count policy)
	Restarts  uint64 // unplanned Runner retirements (poisoned or wedged)
	Preempted uint64 // preemptions: at a quantum boundary, or reclaimed
	Reclaimed uint64 // of Preempted, mid-quantum yields to a higher lane's job

	Workers      int // execution slots
	Idle         int // free slots
	Queued       int // jobs waiting for a grant (unstarted plus parked)
	Resident     int // jobs holding a live VM (granted, slot not yet released)
	HeapReserved uint64
	// HeapWatermark is the configured admission watermark, so readiness
	// probes can tell "shedding at capacity" (HeapReserved at the
	// watermark) apart from ordinary load.
	HeapWatermark uint64
	Draining      bool
}
