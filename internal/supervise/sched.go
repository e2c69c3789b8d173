package supervise

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/pycompile"
	"repro/internal/runtime"
)

// Sched is the serving backend: a continuous-batching scheduler. Jobs are
// admitted into per-lane, per-tenant queues and granted execution slots
// one step-quantum at a time; at each quantum boundary the VM's governor
// calls back into the scheduler (interp.VM.SetYield), which may park the
// job's goroutine — Python frame stack and governor state stay live in
// the VM, no Go-stack capture — and grant the slot to another job. A job
// that arrives to find every slot held, one of them by a lower lane,
// does not wait out that job's quantum: the lower job is asked to yield
// at its VM's next preemption check, ~1k bytecodes away. An
// over-budget job is preempted back to its queue, never condemned:
// preemption is a scheduling decision, condemnation is a health verdict,
// and the two paths never mix.
//
// Exclusive execution is a configuration, not a second backend: NewPool
// passes a quantum the governor saturates on (the job never yields) and
// residency equal to the slot count.
//
// Invariants:
//
//   - at most Slots jobs are RUNNING at once; at most MaxResident jobs
//     hold a live VM (granted, until their Runner is reset or dropped),
//     bounding memory however long the admission queue grows;
//   - the uncontended path is wait-free: a yield with no waiters is two
//     atomic loads (the ≤2% single-job overhead gate in benchgate), and
//     only a job with a lane above it polls the urgent flag at all;
//   - a queued job reclaims at most one slot, from the lowest lane
//     running below its own, and only if it could start on that slot;
//   - parked time is credited to the job's wall-clock deadline by the
//     governor, so scheduling delay never trips a job's own budget;
//   - scheduling emits no interpreter micro-events, so interleaving is
//     invisible in the paper's Table-II attribution;
//   - a poisoned or wedged Runner is dropped, never repaired or
//     respawned: the next grant builds a fresh one.
type Sched struct {
	cfg SchedConfig

	mu   sync.Mutex
	cond *sync.Cond // broadcast when a job leaves the system (Drain)

	lanes []*laneState

	running      int // jobs currently granted a slot
	resident     int // jobs holding a live VM (granted, slot not yet released)
	inflight     int // admitted jobs whose reply is not yet decided
	heapReserved uint64

	// activeRunning is the wedge-scan set: granted jobs that should be
	// making progress (heartbeating from the governor yield path).
	activeRunning map[*schedJob]struct{}

	// free is the warm-Runner free list, per (mode, attributed).
	free [runtime.NumModes][2][]*schedRunner
	// runnerIDs numbers Runners as they are built (JobResult.Worker).
	runnerIDs atomic.Int64

	draining bool
	closed   bool

	stats Stats

	// waiting counts jobs sitting in queues (unstarted + parked). The
	// yield fast path reads it lock-free: zero waiters means keep running.
	waiting atomic.Int32

	maintStop chan struct{}
	maintDone chan struct{}
}

// SchedConfig parameterizes a Sched. Zero values take the documented
// defaults.
type SchedConfig struct {
	// Slots is how many jobs execute concurrently (default 4).
	Slots int
	// QuantumSteps is the preemption granularity: a running job reaches
	// a yield point every this many bytecodes (default 50k, a few ms). A
	// higher lane's job does not wait for it; see preemptForLocked.
	QuantumSteps uint64
	// Lanes is the number of strict-priority lanes; lane 0 is served
	// first (default 2). Job.Lane is clamped into range.
	Lanes int
	// MaxInFlight bounds admitted-but-unfinished jobs; beyond it Submit
	// sheds (default 64 x Slots) — this is what lets thousands of
	// requests queue without each holding a VM.
	MaxInFlight int
	// MaxResident bounds jobs holding a live VM (default 4 x Slots,
	// clamped to at least Slots). Queued jobs past it wait unstarted.
	MaxResident int
	// HeapWatermark bounds the summed heap reservations of resident
	// jobs (default 1 GiB). A job is not started past it; a single job
	// reserving more than the watermark is shed at admission.
	HeapWatermark uint64
	// RecycleAfter retires a Runner after this many jobs (default 256).
	RecycleAfter int
	// DefaultLimits fills any zero field of a job's Limits (Deadline
	// defaults to 5s: the wedge horizon derives from it).
	DefaultLimits interp.Limits
	// WedgeSlack pads the per-job wedge horizon: a granted job that
	// neither yields nor finishes within deadline*wedgeFactor +
	// WedgeSlack is declared wedged (default 250ms).
	WedgeSlack time.Duration
	// MaintInterval paces the wedge scan (default 25ms).
	MaintInterval time.Duration
	// Faults, when non-nil, injects scheduler-layer chaos (WorkerWedge
	// stalls a job's first slice past the wedge horizon). Guarded by the
	// scheduler mutex — the injector itself is not concurrency-safe.
	Faults *faults.Injector
	// Metrics, when non-nil, mirrors scheduler activity into telemetry.
	// Nil runs unobserved on a zero Metrics.
	Metrics *Metrics
}

func (c *SchedConfig) setDefaults() {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.QuantumSteps == 0 {
		c.QuantumSteps = 50_000
	}
	if c.Lanes <= 0 {
		c.Lanes = 2
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64 * c.Slots
	}
	if c.MaxResident <= 0 {
		c.MaxResident = 4 * c.Slots
	}
	if c.MaxResident < c.Slots {
		c.MaxResident = c.Slots
	}
	if c.HeapWatermark == 0 {
		c.HeapWatermark = 1 << 30
	}
	if c.RecycleAfter <= 0 {
		c.RecycleAfter = 256
	}
	if c.DefaultLimits.Deadline == 0 {
		c.DefaultLimits.Deadline = 5 * time.Second
	}
	if c.WedgeSlack <= 0 {
		c.WedgeSlack = 250 * time.Millisecond
	}
	if c.MaintInterval <= 0 {
		c.MaintInterval = 25 * time.Millisecond
	}
}

// laneState is one strict-priority lane: per-tenant FIFO queues served
// round-robin, one slice per tenant per ring visit, so a tenant with many
// queued jobs gets no more turns than a tenant with one.
type laneState struct {
	tenants map[string]*tenantQ
	ring    []*tenantQ // active (non-empty) tenants, round-robin order
	cursor  int
}

type tenantQ struct {
	name string
	jobs []*schedJob
}

// schedRunner wraps a warm Runner with its id, its recycle counter, and
// the hand-off to its executor goroutine, which stays parked on next
// while the Runner waits on the free list.
type schedRunner struct {
	id   int
	r    *runtime.Runner
	jobs int
	next chan *schedJob // buffered 1; closed by Close
}

// schedJob is the scheduler's per-job state.
type schedJob struct {
	job     *Job
	limits  interp.Limits
	reserve uint64
	lane    int
	tenant  string

	reply chan *JobResult // buffered 1; exactly one of finish/wedge/shed sends
	grant chan struct{}   // buffered 1; signalled on each (re-)grant

	started bool
	// sr is the job's Runner: popped from the free list at first grant,
	// or built by the executor (and recorded under the mutex) when none
	// was free. Only the executor writes it after the grant.
	sr        *schedRunner
	abandoned bool // wedge verdict delivered; discard the job on next contact
	done      bool

	preemptions int
	events      []LifeEvent
	lastState   LifeState
	lastNoteAt  time.Time
	runNanos    int64 // accumulated RUNNING time
	submitAt    time.Time
	firstGrant  time.Time
	watchdog    time.Duration

	// lastBeat is the wedge-scan heartbeat (unix nanos), stored by the
	// job's goroutine on every governor yield, read by the scan.
	lastBeat atomic.Int64
	// urgent asks the running job to yield at its VM's next preemption
	// check (~1k bytecodes) rather than at the end of its quantum. Raised
	// under the mutex by preemptForLocked; cleared at the job's next
	// yield and when it is granted again.
	urgent atomic.Bool
}

// maxLifeEvents caps a result's recorded lifecycle trace; a job preempted
// thousands of times keeps its counters exact but not every transition.
const maxLifeEvents = 32

// NewSched builds and starts a scheduler.
func NewSched(cfg SchedConfig) *Sched {
	cfg.setDefaults()
	s := &Sched{
		cfg:           cfg,
		lanes:         make([]*laneState, cfg.Lanes),
		activeRunning: make(map[*schedJob]struct{}),
		maintStop:     make(chan struct{}),
		maintDone:     make(chan struct{}),
	}
	for i := range s.lanes {
		s.lanes[i] = &laneState{tenants: make(map[string]*tenantQ)}
	}
	s.cond = sync.NewCond(&s.mu)
	if s.cfg.Metrics == nil {
		s.cfg.Metrics = &Metrics{}
	}
	s.registerSchedGauges(s.cfg.Metrics)
	go s.maintain()
	return s
}

// effectiveLimits resolves a job's budgets against the defaults via the
// canonical api.Limits.WithDefaults. The result always has a positive
// Deadline when the default does: a non-positive per-job deadline falls
// back to the default rather than poisoning the watchdog derivation.
func (s *Sched) effectiveLimits(job *Job) interp.Limits {
	return job.Limits.WithDefaults(s.cfg.DefaultLimits)
}

// wedgeFactor is the watchdog's multiple of a job's own deadline.
const wedgeFactor = 2

// maxWatchdog caps the watchdog horizon when the multiply below would
// overflow. A day-long watchdog is already "never" for a served job; the
// point is that the cap is large and positive, not precise.
const maxWatchdog = 24 * time.Hour

// jobWatchdog is how long a granted job may go without a heartbeat
// before it is declared wedged: a multiple of its own wall-clock budget
// plus slack, so a healthy limit trip always beats it. The arithmetic
// saturates: an enormous (but valid) deadline degrades to a distant
// watchdog, never wraps negative and condemns the job on the spot.
func (s *Sched) jobWatchdog(l interp.Limits) time.Duration {
	d := l.Deadline
	wd := d * wedgeFactor
	if wd/wedgeFactor != d || wd <= 0 || wd > maxWatchdog {
		wd = maxWatchdog
	}
	if wd += s.cfg.WedgeSlack; wd <= 0 {
		wd = maxWatchdog
	}
	return wd
}

// shedLocked builds a rejection result, Retry-After hinted from the
// backlog per slot.
func (s *Sched) shedLocked(job *Job, why string) *JobResult {
	s.stats.Shed++
	s.cfg.Metrics.events.Inc(evShed)
	ahead := int(s.waiting.Load()) + s.running + 1
	per := s.cfg.DefaultLimits.Deadline
	retry := per * time.Duration(ahead) / time.Duration(max(1, s.cfg.Slots))
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	return &JobResult{
		Class:      ClassShed,
		Err:        "shed: " + why,
		Mode:       job.Mode,
		Worker:     -1,
		RetryAfter: retry,
	}
}

// Submit runs one job to completion through the scheduler and always
// returns a non-nil result: the job's outcome, a ClassShed rejection, or
// a ClassWedged verdict. Safe for concurrent use; the calling goroutine
// blocks until the job finishes, is shed, or is declared wedged.
func (s *Sched) Submit(job *Job) *JobResult {
	res := s.submit(job)
	// One funnel for the per-job telemetry, off the mutex: the
	// instruments are atomic.
	s.cfg.Metrics.observeJob(res)
	return res
}

func (s *Sched) submit(job *Job) *JobResult {
	now := time.Now()
	limits := s.effectiveLimits(job)
	j := &schedJob{
		job:      job,
		limits:   limits,
		reserve:  limits.MaxHeapBytes,
		lane:     clampLane(job.Lane, s.cfg.Lanes),
		tenant:   job.Tenant,
		reply:    make(chan *JobResult, 1),
		grant:    make(chan struct{}, 1),
		events:   make([]LifeEvent, 0, 4), // an unpreempted journey
		submitAt: now,
		watchdog: s.jobWatchdog(limits),
	}

	s.mu.Lock()
	s.stats.Submitted++
	switch {
	case s.closed || s.draining:
		res := s.shedLocked(job, "scheduler is draining")
		s.mu.Unlock()
		return res
	case s.inflight >= s.cfg.MaxInFlight:
		res := s.shedLocked(job, "in-flight limit reached")
		s.mu.Unlock()
		return res
	case j.reserve > s.cfg.HeapWatermark:
		// This job could never start: shed it at admission rather than
		// queue it forever. Jobs that merely don't fit right now wait.
		res := s.shedLocked(job, "heap reservation watermark reached")
		s.mu.Unlock()
		return res
	}
	s.inflight++
	j.note(s, LifeQueued, now)
	s.enqueueLocked(j)
	s.grantLocked()
	s.preemptForLocked(j)
	s.mu.Unlock()

	return <-j.reply
}

func clampLane(lane, lanes int) int {
	if lane < 0 {
		return 0
	}
	if lane >= lanes {
		return lanes - 1
	}
	return lane
}

// enqueueLocked appends j to the back of its tenant's FIFO, activating
// the tenant in the lane ring if it was idle.
func (s *Sched) enqueueLocked(j *schedJob) {
	ls := s.lanes[j.lane]
	t := ls.tenants[j.tenant]
	if t == nil {
		t = &tenantQ{name: j.tenant}
		ls.tenants[j.tenant] = t
	}
	if len(t.jobs) == 0 {
		ls.ring = append(ls.ring, t)
	}
	t.jobs = append(t.jobs, j)
	s.waiting.Add(1)
}

// grantLocked fills free slots from the queues: highest-priority
// non-empty lane first, round robin across that lane's tenants. A
// started (parked) job is always grantable — it already holds its VM;
// an unstarted job needs a resident slot and heap headroom, and takes a
// warm Runner off the free list here, under the same lock.
func (s *Sched) grantLocked() {
	for s.running < s.cfg.Slots {
		j := s.pickLocked()
		if j == nil {
			return
		}
		s.running++
		now := time.Now()
		j.lastBeat.Store(now.UnixNano())
		j.note(s, LifeScheduled, now)
		s.activeRunning[j] = struct{}{}
		if !j.started {
			j.started = true
			s.resident++
			s.heapReserved += j.reserve
			j.firstGrant = now
			if l := s.freeList(j.job); len(*l) > 0 {
				j.sr = (*l)[len(*l)-1]
				*l = (*l)[:len(*l)-1]
				j.sr.next <- j
			} else {
				go s.run(j)
			}
			continue
		}
		// A flag raised while the job was parking is stale by now.
		j.urgent.Store(false)
		j.grant <- struct{}{}
	}
}

// pickLocked implements the two-level policy: strict priority across
// lanes, round robin across a lane's tenants. Returns nil when nothing
// grantable is queued.
func (s *Sched) pickLocked() *schedJob {
	for _, ls := range s.lanes {
		for visits := 0; visits < len(ls.ring); visits++ {
			if ls.cursor >= len(ls.ring) {
				ls.cursor = 0
			}
			t := ls.ring[ls.cursor]
			j := s.popGrantableLocked(t)
			if j == nil {
				// Nothing startable in this tenant right now (resident or
				// heap pressure); try the next.
				ls.cursor++
				continue
			}
			if len(t.jobs) == 0 {
				ls.ring = append(ls.ring[:ls.cursor], ls.ring[ls.cursor+1:]...)
				delete(ls.tenants, t.name)
			} else {
				ls.cursor++
			}
			s.waiting.Add(-1)
			return j
		}
	}
	return nil
}

// popGrantableLocked removes and returns the first job in t's FIFO that
// can be granted now: parked jobs always; unstarted jobs only with a
// resident slot and heap headroom.
func (s *Sched) popGrantableLocked(t *tenantQ) *schedJob {
	for i, j := range t.jobs {
		if !j.started {
			if s.resident >= s.cfg.MaxResident {
				continue
			}
			if s.heapReserved+j.reserve > s.cfg.HeapWatermark {
				continue
			}
		}
		t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
		return j
	}
	return nil
}

// preemptForLocked reclaims a slot for j, just queued or re-queued for
// want of one: it raises the urgent flag of a running job in a lower-
// priority lane, which then yields within ~1k bytecodes instead of at
// the end of its quantum, and the grant at that yield goes to j. The
// victim comes from the lowest lane and must not be flagged already, so
// N queued jobs reclaim at most N slots. Nothing is reclaimed for a job
// that could not start on a freed slot (residency or heap headroom).
func (s *Sched) preemptForLocked(j *schedJob) {
	if j.lane == s.cfg.Lanes-1 {
		return // no lane below the last
	}
	if _, granted := s.activeRunning[j]; granted {
		return
	}
	if !j.started && (s.resident >= s.cfg.MaxResident || s.heapReserved+j.reserve > s.cfg.HeapWatermark) {
		return
	}
	var victim *schedJob
	for r := range s.activeRunning {
		if r.lane > j.lane && !r.urgent.Load() && (victim == nil || r.lane > victim.lane) {
			victim = r
		}
	}
	if victim != nil {
		victim.urgent.Store(true)
	}
}

// queuedAboveLocked reports whether a job is queued in a lane of higher
// priority than lane.
func (s *Sched) queuedAboveLocked(lane int) bool {
	for _, ls := range s.lanes[:lane] {
		if len(ls.ring) > 0 {
			return true
		}
	}
	return false
}

// yield is the governor callback for job j, called from the VM every
// QuantumSteps bytecodes, or sooner when preemptForLocked raised the
// job's urgent flag. The uncontended fast path — no waiters — is one
// heartbeat store and two atomic loads. Otherwise the job is preempted:
// slot released, job re-queued at the back of its tenant FIFO, goroutine
// parked until the next grant. A mid-quantum (urgent) yield preempts
// only for a job queued in a higher lane. Returns the parked duration
// for the governor's deadline credit.
func (s *Sched) yield(j *schedJob) time.Duration {
	now := time.Now()
	j.lastBeat.Store(now.UnixNano())
	urgent := j.urgent.Load()
	if urgent {
		j.urgent.Store(false)
	}
	if s.waiting.Load() == 0 {
		return 0
	}
	s.mu.Lock()
	if j.abandoned {
		s.mu.Unlock()
		// The wedge verdict was already delivered; unwind the zombie run
		// as an in-language error. The result is discarded by finish.
		interp.Raise("TimeoutError", "job abandoned by scheduler after wedge verdict")
	}
	if s.closed || s.waiting.Load() == 0 || (urgent && !s.queuedAboveLocked(j.lane)) {
		s.mu.Unlock()
		return 0
	}
	j.preemptions++
	s.stats.Preempted++
	if urgent {
		s.stats.Reclaimed++
	}
	j.note(s, LifePreempted, now)
	delete(s.activeRunning, j)
	s.running--
	s.enqueueLocked(j)
	s.grantLocked()
	s.preemptForLocked(j)
	s.mu.Unlock()

	<-j.grant

	s.mu.Lock()
	resumed := time.Now()
	j.note(s, LifeRunning, resumed)
	s.mu.Unlock()
	return resumed.Sub(now)
}

// run is an executor goroutine, spawned by a grant that found no warm
// Runner. It owns the job's Runner across preemptions (parking blocks
// right here, inside the VM's dispatch loop) and sends exactly one reply
// unless a wedge verdict beat it to it. It then stays with the Runner:
// while the Runner waits on the free list the goroutine waits for the
// next job granted to it, so a warm VM keeps a warm goroutine stack
// instead of regrowing one through the interpreter's recursion per job.
func (s *Sched) run(j *schedJob) {
	for j != nil {
		// Injected scheduler fault: wedge — stall the first slice past
		// the wedge horizon. The submitter gets a ClassWedged verdict
		// from the scan; this goroutine finds itself abandoned when it
		// wakes.
		if s.fireFault(faults.WorkerWedge) {
			time.Sleep(j.watchdog + s.cfg.WedgeSlack)
		}
		j = s.finish(j, s.execute(j))
	}
}

// fireFault consults the scheduler-layer injector under the mutex. The
// nil guard keeps an unfaulted scheduler's per-job probe off the mutex.
func (s *Sched) fireFault(k faults.Kind) bool {
	if s.cfg.Faults == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Faults.Should(k)
}

// execute runs j on a warm Runner with the yield hook armed.
func (s *Sched) execute(j *schedJob) *JobResult {
	jr := &JobResult{Mode: j.job.Mode, Worker: -1}
	code := j.job.Code
	if code == nil {
		var err error
		if code, err = pycompile.CompileSource(j.job.Name, j.job.Src); err != nil {
			jr.Class = ClassError
			jr.Err = err.Error()
			return jr
		}
	}
	sr := j.sr
	if sr == nil {
		var err error
		if sr, err = s.newRunner(j.job.Mode, j.job.Breakdown); err != nil {
			jr.Class = ClassError
			jr.Err = err.Error()
			return jr
		}
	}
	jr.Worker = sr.id
	r := sr.r
	r.SetLimits(j.limits)
	// Only a job with a lane above it can be reclaimed mid-quantum, so
	// only such a job polls the urgent flag.
	var urgent *atomic.Bool
	if j.lane > 0 {
		urgent = &j.urgent
	}
	r.SetYield(s.cfg.QuantumSteps, urgent, func() time.Duration { return s.yield(j) })
	// Warm-start plumbing: arm the job's portable IC seed (nil disarms —
	// essential, or the previous job's seed would bind to this program)
	// and the seed-export opt-in.
	r.SetICSeed(j.job.ICSeed)
	r.SetCollectICSeed(j.job.CollectICSeed)

	s.mu.Lock()
	j.sr = sr // the wedge verdict names it; finish disposes of it
	j.note(s, LifeRunning, time.Now())
	s.mu.Unlock()

	res, err := r.RunCode(code)
	jr.Class = Classify(err)
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	jr.Output = res.Output
	jr.Bytecodes = res.VM.Bytecodes
	jr.Allocs = res.Heap.Allocations
	jr.MinorGCs = res.Heap.MinorGCs
	jr.MajorGCs = res.Heap.MajorGCs
	if res.JIT != nil {
		jr.ErrorDeopts = res.JIT.ErrorDeopts
	}
	jr.IC = res.VM.IC
	jr.ICSeed = res.ICSeed
	if j.job.Breakdown {
		bd := res.Breakdown
		jr.Breakdown = &bd
	}
	jr.health = healthProbe(res)
	return jr
}

// finish closes out a job: the reply is decided and sent first, then
// the Runner is policed and reset off the reply path, and only then are
// the slot, residency and heap reservation released — together with the
// Runner's return to the free list, in the critical section that grants
// the next job. A slot and its Runner come back as one, so the next
// grant finds a warm Runner instead of building one while this one
// resets. Returns the next job handed to this goroutine with its Runner,
// or nil when the goroutine should exit.
func (s *Sched) finish(j *schedJob, res *JobResult) *schedJob {
	now := time.Now()
	s.mu.Lock()
	abandoned := j.abandoned
	j.done = true
	if !abandoned {
		j.note(s, LifeFinished, now)
		delete(s.activeRunning, j)
		s.inflight--
		s.stats.Completed++
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	if abandoned {
		// The verdict released everything and counted the Runner's
		// retirement; the zombie's result and Runner are garbage.
		return nil
	}
	res.Queued = j.firstGrant.Sub(j.submitAt)
	res.RunTime = time.Duration(j.runNanos)
	res.Preemptions = j.preemptions
	res.Lifecycle = j.events
	j.reply <- res

	sr := j.sr
	var poisoned, recycled, kept bool
	if sr != nil {
		poisoned, recycled = s.disposeRunner(sr, res)
	}
	s.mu.Lock()
	s.running--
	s.resident--
	s.heapReserved -= j.reserve
	switch {
	case sr == nil:
	case poisoned:
		s.stats.Poisoned++
		s.stats.Restarts++
		s.cfg.Metrics.events.Inc(evPoisoned)
		s.cfg.Metrics.events.Inc(evRestart)
	case recycled:
		s.stats.Recycled++
		s.cfg.Metrics.events.Inc(evRecycled)
	default:
		// Bounded by MaxResident: more warm VMs than can ever be resident
		// is waste.
		if l := s.freeList(j.job); !s.closed && len(*l) < s.cfg.MaxResident {
			*l = append(*l, sr)
			kept = true
		}
	}
	s.grantLocked()
	s.mu.Unlock()
	if !kept {
		return nil
	}
	return <-sr.next
}

// disposeRunner polices a finished job's Runner. A poisoned Runner (an
// internal error, a bad health probe, or a failed canary after an
// errored run) and one due for recycling are retired — simply dropped;
// any other is reset to pristine state for the next job.
func (s *Sched) disposeRunner(sr *schedRunner, res *JobResult) (poisoned, recycled bool) {
	sr.jobs++
	switch {
	case res.Class == ClassInternal, res.health != "":
		return true, false
	case res.Class != ClassOK && canaryRunner(sr.r) != "":
		return true, false
	case sr.jobs >= s.cfg.RecycleAfter:
		return false, true
	}
	sr.r.SetYield(0, nil, nil)
	sr.r.Reset()
	return false, false
}

// canarySrc is the health probe run after a job errors: a Runner that
// cannot produce "42" from pristine state is poisoned.
const canarySrc = "print(6 * 7)\n"

// canaryRunner reruns the canary program from pristine state on a Runner
// whose last job errored (an aborted run yields no statistics to probe).
func canaryRunner(r *runtime.Runner) string {
	r.SetYield(0, nil, nil)
	r.SetLimits(interp.Limits{MaxSteps: 100_000, Deadline: 5 * time.Second})
	// The canary must run from truly pristine state: a seed armed by the
	// errored job would bind to the canary's code tree.
	r.SetICSeed(nil)
	r.SetCollectICSeed(false)
	res, err := r.Run("canary.py", canarySrc)
	if err != nil {
		return "canary failed: " + err.Error()
	}
	if res.Output != "42\n" {
		return "canary output " + res.Output
	}
	if bad := healthProbe(res); bad != "" {
		return "canary " + bad
	}
	return ""
}

// healthProbe audits a completed run's heap statistics: refcount balance
// and free/allocation accounting. A Runner whose bookkeeping went bad is
// poisoned even when the job's output looked fine.
func healthProbe(res *runtime.Result) string {
	h := res.Heap
	if h.BadDecrefs != 0 {
		return fmt.Sprintf("%d decrefs hit an object with RC <= 0", h.BadDecrefs)
	}
	if h.Decrefs > h.Increfs+h.Allocations {
		return fmt.Sprintf("refcount imbalance: %d decrefs > %d increfs + %d allocations",
			h.Decrefs, h.Increfs, h.Allocations)
	}
	if h.Frees > h.Allocations+h.PayloadAllocs {
		return fmt.Sprintf("free accounting: %d frees > %d allocations + %d payload allocs",
			h.Frees, h.Allocations, h.PayloadAllocs)
	}
	if h.MajorGCs > h.MinorGCs {
		return fmt.Sprintf("gc accounting: %d major GCs > %d minor GCs", h.MajorGCs, h.MinorGCs)
	}
	return ""
}

// freeList is the warm-Runner free list for job's (mode, attributed)
// pair. Callers hold s.mu.
func (s *Sched) freeList(job *Job) *[]*schedRunner {
	ai := 0
	if job.Breakdown {
		ai = 1
	}
	return &s.free[job.Mode][ai]
}

// newRunner builds a fresh Runner. Attributed jobs get the simple-core
// pipeline (slower, but the result carries the paper's per-category
// breakdown); everything else runs on the functional fast path.
func (s *Sched) newRunner(mode runtime.Mode, attributed bool) (*schedRunner, error) {
	cfg := runtime.ServingConfig(mode)
	if attributed {
		cfg = runtime.AttributedServingConfig(mode)
	}
	r, err := runtime.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return &schedRunner{id: int(s.runnerIDs.Add(1) - 1), r: r, next: make(chan *schedJob, 1)}, nil
}

// maintain is the wedge scan: a granted job that has neither yielded nor
// finished within its watchdog is declared wedged. The submitter gets
// its verdict now, and everything the job held — slot, residency, heap
// reservation — is released at once, so a VM that never returns cannot
// starve the node. The Runner is retired with the job; the zombie's
// eventual result is discarded.
func (s *Sched) maintain() {
	defer close(s.maintDone)
	tick := time.NewTicker(s.cfg.MaintInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.maintStop:
			return
		case <-tick.C:
		}
		now := time.Now()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		for j := range s.activeRunning {
			if j.done || j.abandoned {
				continue
			}
			beat := time.Unix(0, j.lastBeat.Load())
			if now.Sub(beat) <= j.watchdog {
				continue
			}
			j.abandoned = true
			delete(s.activeRunning, j)
			s.running--
			s.resident--
			s.inflight--
			s.heapReserved -= j.reserve
			s.stats.Wedged++
			s.stats.Restarts++
			s.cfg.Metrics.events.Inc(evWedged)
			s.cfg.Metrics.events.Inc(evRestart)
			j.note(s, LifeFinished, now)
			worker := -1
			if j.sr != nil {
				worker = j.sr.id
			}
			j.reply <- &JobResult{
				Class:       ClassWedged,
				Err:         "wedged: no yield within " + j.watchdog.String(),
				Mode:        j.job.Mode,
				Worker:      worker,
				Queued:      j.firstGrant.Sub(j.submitAt),
				RunTime:     j.watchdog,
				Preemptions: j.preemptions,
				Lifecycle:   j.events,
			}
			s.grantLocked()
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// drainFlushLocked sheds every queued unstarted job (started parked jobs
// are in-flight: they keep their VMs and run to completion).
func (s *Sched) drainFlushLocked(why string) {
	for _, ls := range s.lanes {
		for name, t := range ls.tenants {
			kept := t.jobs[:0]
			for _, j := range t.jobs {
				if j.started {
					kept = append(kept, j)
					continue
				}
				s.waiting.Add(-1)
				s.inflight--
				res := s.shedLocked(j.job, why)
				res.Queued = time.Since(j.submitAt)
				j.reply <- res
			}
			t.jobs = kept
			if len(t.jobs) == 0 {
				for i, rt := range ls.ring {
					if rt == t {
						ls.ring = append(ls.ring[:i], ls.ring[i+1:]...)
						if ls.cursor > i {
							ls.cursor--
						}
						break
					}
				}
				delete(ls.tenants, name)
			}
		}
	}
}

// Drain stops admission, sheds queued unstarted jobs, and waits (up to
// timeout) for in-flight jobs to finish.
func (s *Sched) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake.Stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.drainFlushLocked("scheduler is draining")
	for {
		if s.inflight == 0 {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		s.cond.Wait()
	}
}

// Close tears the scheduler down: sheds queued unstarted jobs, releases
// every parked job to run to completion (their submitters still get
// replies), ends the executors idling with warm Runners, and stops the
// wedge scan. Idempotent.
func (s *Sched) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.drainFlushLocked("scheduler closed")
	// Release all parked jobs, ignoring the slot cap: nothing may stay
	// parked forever once the grant machinery stops.
	for _, ls := range s.lanes {
		for name, t := range ls.tenants {
			for _, j := range t.jobs {
				s.waiting.Add(-1)
				s.running++
				j.note(s, LifeScheduled, time.Now())
				s.activeRunning[j] = struct{}{}
				j.grant <- struct{}{}
			}
			t.jobs = nil
			delete(ls.tenants, name)
		}
		ls.ring = nil
		ls.cursor = 0
	}
	// Release the executors parked with warm Runners.
	for m := range s.free {
		for a := range s.free[m] {
			for _, sr := range s.free[m][a] {
				close(sr.next)
			}
			s.free[m][a] = nil
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.maintStop)
	<-s.maintDone
}

// Stats returns a snapshot: Workers is the slot count, Idle the free
// slots, Queued the jobs waiting for a grant.
func (s *Sched) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Workers = s.cfg.Slots
	st.Idle = s.cfg.Slots - s.running
	if st.Idle < 0 {
		st.Idle = 0
	}
	st.Queued = int(s.waiting.Load())
	st.Resident = s.resident
	st.HeapReserved = s.heapReserved
	st.HeapWatermark = s.cfg.HeapWatermark
	st.Draining = s.draining
	return st
}
