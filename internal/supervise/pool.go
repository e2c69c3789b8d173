package supervise

import (
	"time"

	"repro/internal/faults"
	"repro/internal/interp"
)

// Config parameterizes the exclusive configuration (NewPool). Zero values
// take the documented defaults.
type Config struct {
	// Workers is how many jobs run at once, each holding its VM until it
	// finishes (default 4).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running; beyond it
	// Submit sheds (default 2 x Workers).
	QueueDepth int
	// HeapWatermark bounds the summed heap reservations (each job's
	// effective MaxHeapBytes) of running jobs; a job past it waits, and a
	// single job reserving more than it is shed (default 1 GiB).
	HeapWatermark uint64
	// RecycleAfter retires a Runner after this many jobs, to bound state
	// drift (default 256).
	RecycleAfter int
	// WedgeSlack pads the watchdog: a job is declared wedged after
	// 2 x its deadline + WedgeSlack (default 250ms).
	WedgeSlack time.Duration
	// DefaultLimits fills any zero field of a job's Limits. Its Deadline
	// defaults to 5s: a supervised job always has a wall-clock bound, or
	// the watchdog could not be derived.
	DefaultLimits interp.Limits
	// Faults, when non-nil, injects supervision-layer chaos (WorkerWedge).
	Faults *faults.Injector
	// Metrics, when non-nil, mirrors activity into telemetry instruments
	// (see NewMetrics). Nil runs unobserved at zero cost.
	Metrics *Metrics
}

// exclusiveQuantum is a slice the governor saturates on: the yield point
// is unreachable, so a job never gives up its slot.
const exclusiveQuantum = ^uint64(0)

// NewPool builds the exclusive configuration of the scheduler: Workers
// slots, one lane, residency equal to the slot count, and a quantum that
// never ends, so every job owns a warm VM from grant to finish.
func NewPool(cfg Config) *Sched {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	return NewSched(SchedConfig{
		Slots:         cfg.Workers,
		QuantumSteps:  exclusiveQuantum,
		Lanes:         1,
		MaxInFlight:   cfg.Workers + cfg.QueueDepth,
		MaxResident:   cfg.Workers,
		HeapWatermark: cfg.HeapWatermark,
		RecycleAfter:  cfg.RecycleAfter,
		DefaultLimits: cfg.DefaultLimits,
		WedgeSlack:    cfg.WedgeSlack,
		Faults:        cfg.Faults,
		Metrics:       cfg.Metrics,
	})
}
