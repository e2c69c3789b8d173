package supervise

import (
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Supervision events mirrored into telemetry counters (the cumulative
// Stats fields, as a labelled family). Indexes into Metrics.events.
const (
	evShed = iota
	evWedged
	evPoisoned
	evRecycled
	evRestart
	numEvents
)

var eventNames = [numEvents]string{"shed", "wedged", "poisoned", "recycled", "restart"}

// Metrics is the scheduler's telemetry instrumentation: per-class job
// counters and latency histograms, supervision event counters, and the
// live overhead-attribution accumulator. NewSched replaces a nil
// SchedConfig.Metrics with a zero &Metrics{}: its nil instruments and nil
// registry are inert, so an unwired scheduler records through the same
// call sites and pays one branch per instrument.
//
// Construction registers every family on the registry; NewSched
// additionally registers the point-in-time occupancy gauges, which need
// the scheduler itself. Like the resource governor, recording is host
// bookkeeping only — it emits no micro-events and never touches the
// simulated machine.
type Metrics struct {
	reg *telemetry.Registry

	// jobs counts every Submit outcome by exit class.
	jobs *telemetry.CounterVec
	// queueWait and runTime split each job's latency into admission
	// wait and execution, keyed by exit class.
	queueWait *telemetry.HistogramVec
	runTime   *telemetry.HistogramVec
	// events mirrors the cumulative supervision counters.
	events *telemetry.CounterVec
	// overheadCycles and overheadInstrs accumulate the per-category
	// attribution of every breakdown-enabled job, so /metrics shows the
	// paper's Table-II split for live traffic.
	overheadCycles *telemetry.CounterVec
	overheadInstrs *telemetry.CounterVec
	// icHits and icMisses accumulate inline-cache traffic by site kind
	// (global, attr, method, store); icInvalidations and icDequickened
	// count guard breaks and sites demoted back to generic bytecode.
	// Together they expose the quickened interpreter's effectiveness on
	// live traffic.
	icHits          *telemetry.CounterVec
	icMisses        *telemetry.CounterVec
	icInvalidations *telemetry.Counter
	icDequickened   *telemetry.Counter
	// schedTransitions counts lifecycle-state entries under the
	// step-sliced scheduler; schedStateTime histograms the dwell time in
	// the state being left at each transition. Together they are the
	// journey-trace view (QUEUED→SCHEDULED→RUNNING→PREEMPTED→FINISHED)
	// of live traffic on the allocation-free core.
	schedTransitions *telemetry.CounterVec
	schedStateTime   *telemetry.HistogramVec
}

// icSiteNames lists the inline-cache site-kind label values, indexed by
// the icSite* constants.
var icSiteNames = []string{"global", "attr", "method", "store", "poly", "fused", "intfast"}

const (
	icSiteGlobal = iota
	icSiteAttr
	icSiteMethod
	icSiteStore
	icSitePoly
	icSiteFused
	icSiteIntFast
)

// classNames lists the exit-class label values in Class order.
func classLabelValues() []string {
	vals := make([]string, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		vals[c] = c.String()
	}
	return vals
}

// categoryLabelValues lists the overhead-category label values in
// taxonomy order.
func categoryLabelValues() []string {
	vals := make([]string, core.NumCategories)
	for c := core.Category(0); c < core.NumCategories; c++ {
		vals[c] = c.String()
	}
	return vals
}

// NewMetrics registers the scheduler's metric families on reg and returns
// the instrumentation handle to put in Config.Metrics or
// SchedConfig.Metrics.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	classes := classLabelValues()
	return &Metrics{
		reg: reg,
		jobs: reg.CounterVec("minipy_jobs_total",
			"Jobs submitted to the scheduler, by exit class.", "class", classes),
		queueWait: reg.HistogramVec("minipy_job_queue_wait_seconds",
			"Admission wait before a job's first grant, by exit class.", "class", classes),
		runTime: reg.HistogramVec("minipy_job_run_seconds",
			"Job execution time on a Runner, by exit class.", "class", classes),
		events: reg.CounterVec("minipy_pool_events_total",
			"Supervision events (shed, wedged, poisoned, recycled, restart).",
			"event", eventNames[:]),
		overheadCycles: reg.CounterVec("minipy_overhead_cycles_total",
			"Simulated cycles attributed per overhead category across breakdown-enabled jobs.",
			"category", categoryLabelValues()),
		overheadInstrs: reg.CounterVec("minipy_overhead_instructions_total",
			"Dynamic instructions attributed per overhead category across breakdown-enabled jobs.",
			"category", categoryLabelValues()),
		icHits: reg.CounterVec("minipy_ic_hits_total",
			"Inline-cache hits in the quickened interpreter, by site kind.",
			"site", icSiteNames),
		icMisses: reg.CounterVec("minipy_ic_misses_total",
			"Inline-cache misses in the quickened interpreter, by site kind.",
			"site", icSiteNames),
		icInvalidations: reg.Counter("minipy_ic_invalidations_total",
			"Inline-cache guard invalidations (version bumps, layout changes, flushes)."),
		icDequickened: reg.Counter("minipy_ic_dequickened_total",
			"Quickened sites demoted back to generic bytecode after exhausting their miss budget."),
		schedTransitions: reg.CounterVec("minipy_sched_transitions_total",
			"Lifecycle-state entries under the step-sliced scheduler (queued, scheduled, running, preempted, finished).",
			"state", lifeNames[:]),
		schedStateTime: reg.HistogramVec("minipy_sched_state_seconds",
			"Dwell time in each lifecycle state, recorded when the state is left (step-sliced scheduler).",
			"state", lifeNames[:]),
	}
}

// lifeTransition records one scheduler lifecycle transition: the state
// being entered, and the dwell time in the state being left (prev ==
// NumLifeStates on the first transition, which has no predecessor).
// Called under the scheduler mutex; the instruments are atomic and
// allocation-free.
func (m *Metrics) lifeTransition(entered, prev LifeState, dwell time.Duration) {
	m.schedTransitions.Inc(int(entered))
	if prev < NumLifeStates {
		m.schedStateTime.Observe(int(prev), dwell)
	}
}

// observeJob records a finished Submit: the class-keyed job counter, the
// latency split, inline-cache traffic and (for breakdown jobs) the live
// attribution. Called off the scheduler mutex (all instruments are
// atomic).
func (m *Metrics) observeJob(res *JobResult) {
	c := int(res.Class)
	m.jobs.Inc(c)
	m.queueWait.Observe(c, res.Queued)
	m.runTime.Observe(c, res.RunTime)
	m.observeIC(res)
	m.observeBreakdown(res.Breakdown)
}

// observeIC folds one job's inline-cache counters into the site-kind
// totals.
func (m *Metrics) observeIC(res *JobResult) {
	ic := res.IC
	addPair := func(site int, hits, misses uint64) {
		if hits != 0 {
			m.icHits.Add(site, hits)
		}
		if misses != 0 {
			m.icMisses.Add(site, misses)
		}
	}
	addPair(icSiteGlobal, ic.GlobalHits, ic.GlobalMisses)
	addPair(icSiteAttr, ic.AttrHits, ic.AttrMisses)
	addPair(icSiteMethod, ic.MethodHits, ic.MethodMisses)
	addPair(icSiteStore, ic.StoreHits, ic.StoreMisses)
	addPair(icSitePoly, ic.PolyHits, ic.PolyMisses)
	addPair(icSiteFused, ic.FusedHits, ic.FusedMisses)
	addPair(icSiteIntFast, ic.IntFastHits, ic.IntFastMisses)
	if ic.Invalidations != 0 {
		m.icInvalidations.Add(ic.Invalidations)
	}
	if ic.Dequickened != 0 {
		m.icDequickened.Add(ic.Dequickened)
	}
}

// observeBreakdown accumulates one job's attribution into the live
// per-category counters; a job without a breakdown adds nothing.
func (m *Metrics) observeBreakdown(bd *core.Breakdown) {
	if bd == nil {
		return
	}
	for c := core.Category(0); c < core.NumCategories; c++ {
		if bd.Cycles[c] != 0 {
			m.overheadCycles.Add(int(c), bd.Cycles[c])
		}
		if bd.Instrs[c] != 0 {
			m.overheadInstrs.Add(int(c), bd.Instrs[c])
		}
	}
}

// registerSchedGauges installs the scheduler's point-in-time occupancy
// gauges. Callbacks run at scrape time only and snapshot under the
// scheduler mutex — the scrape path may lock; the record path never does.
func (s *Sched) registerSchedGauges(m *Metrics) {
	snap := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(s.Stats()) }
	}
	m.reg.GaugeFunc("minipy_sched_running",
		"Jobs currently granted an execution slot.",
		snap(func(st Stats) float64 { return float64(st.Workers - st.Idle) }))
	m.reg.GaugeFunc("minipy_sched_waiting",
		"Jobs queued for a grant (unstarted plus preempted).",
		snap(func(st Stats) float64 { return float64(st.Queued) }))
	m.reg.GaugeFunc("minipy_sched_resident",
		"Jobs holding a live VM (granted, slot not yet released).",
		snap(func(st Stats) float64 { return float64(st.Resident) }))
	m.reg.GaugeFunc("minipy_sched_heap_reserved_bytes",
		"Summed heap reservations of resident jobs.",
		snap(func(st Stats) float64 { return float64(st.HeapReserved) }))
}
