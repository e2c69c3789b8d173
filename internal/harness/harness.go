// Package harness is the serving stack's one soak and load harness: one
// corpus stamped by one reference run, one concurrent driver, one
// oracle and one report, applied unchanged to every depth of the stack
// — a reused Runner, the step-sliced scheduler, one serve over HTTP, and
// a routed fleet under chaos — so a difference between depths comes from
// the depth, not from the harness.
//
// cmd/pyfuzz -stack runs the soaks (Soak); cmd/pyload points the same
// driver at an external /v1/run endpoint (Drive with an HTTP target).
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/supervise"
)

// Target runs corpus program p as request seq and reports what its
// client saw.
type Target interface {
	Run(p *Program, seq int64) Outcome
}

// Outcome is one request's result as its client saw it.
type Outcome struct {
	// Fail labels a request no scheduler answered: "no_backends" and
	// "retry_budget_exhausted" (the router refused with Retry-After and
	// nothing ran: budgeted), "upstream_error", "http_<code>" and
	// "transport_error" (casualties). Empty when the fields below hold a
	// scheduler's answer.
	Fail       string
	Class      supervise.Class
	Err        string
	Output     string
	RetryAfter time.Duration // the shed hint
	// Executions is the reply's per-key execution stamp and Deduped marks
	// a replay answered from a dedup cache (keyed HTTP requests only).
	Executions int
	Deduped    bool
	// Latency is the round trip; zero when no exchange completed.
	Latency time.Duration
}

// Config is one drive.
type Config struct {
	Requests    int    // total requests (default 200)
	Concurrency int    // requests in flight (default 8)
	Seed        uint64 // orders the corpus walk
	// Budget is the allowed ratio of unbudgeted failures (casualties and
	// wrong answers) to requests. Sheds and routing refusals, which
	// carry Retry-After and provably never ran, do not count against it.
	Budget float64
}

// Latency summarizes the per-request latency distribution.
type Latency struct {
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MeanMs float64 `json:"meanMs"`
	MaxMs  float64 `json:"maxMs"`
}

// Report is the machine-readable result of one drive or soak.
type Report struct {
	Stack       string  `json:"stack,omitempty"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"durationSec"`
	Throughput  float64 `json:"throughputRps"`
	Latency     Latency `json:"latency"`

	// Outcomes counts requests by exit class name or Outcome.Fail label.
	Outcomes map[string]int `json:"outcomes"`
	// Served counts requests a Runner executed to an answer (any class
	// but shed and wedged); Verified counts those checked against the
	// reference (wall-clock deadline trips are skipped), WrongAnswers
	// the ones that disagreed.
	Served       int `json:"served"`
	Verified     int `json:"verified"`
	WrongAnswers int `json:"wrongAnswers"`

	// Exactly-once accounting (keyed requests). DuplicateExecutions
	// counts replies stamped with more than one execution;
	// MaxExecutions is the worst per-key count a backend recorded.
	DedupedReplies      int `json:"dedupedReplies,omitempty"`
	DuplicateExecutions int `json:"duplicateExecutions"`
	MaxExecutions       int `json:"maxExecutions,omitempty"`

	// Error budget verdict.
	BudgetedFailures    int     `json:"budgetedFailures"`
	UnbudgetedFailures  int     `json:"unbudgetedFailures"`
	AllowedFailureRatio float64 `json:"allowedFailureRatio"`
	FailureRatio        float64 `json:"failureRatio"`
	WithinBudget        bool    `json:"withinBudget"`

	// Soak-only: faults fired per chaos kind (byte chaos per net fault
	// kind), the scheduler's closing statistics, the router's ejection
	// and readmit totals, and the stack's metrics exposition.
	Fired      map[string]uint64 `json:"fired,omitempty"`
	Sched      *supervise.Stats  `json:"sched,omitempty"`
	Ejections  uint64            `json:"ejections,omitempty"`
	Readmits   uint64            `json:"readmits,omitempty"`
	Exposition string            `json:"-"`

	// Violations lists every oracle and stack-check failure; a run
	// passes only with none.
	Violations []string `json:"violations,omitempty"`
}

// Ok reports whether the run finished without a violation.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) violate(format string, args ...interface{}) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Drive sends cfg.Requests requests from corpus through t, cfg.Concurrency
// at a time, each on the program a seeded walk picks, and holds every
// reply to the oracle (observe).
func Drive(t Target, corpus []Program, cfg Config) *Report {
	if cfg.Requests <= 0 {
		cfg.Requests = 200
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	rep := &Report{
		Requests:            cfg.Requests,
		Concurrency:         cfg.Concurrency,
		Outcomes:            make(map[string]int),
		AllowedFailureRatio: cfg.Budget,
	}
	var (
		next atomic.Int64
		mu   sync.Mutex // guards rep and lats
		lats []time.Duration
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := next.Add(1) - 1; seq < int64(cfg.Requests); seq = next.Add(1) - 1 {
				// Deterministic per seq, spread across the corpus so all
				// workers share the mix.
				p := &corpus[(uint64(seq)*0x9E3779B97F4A7C15+cfg.Seed)%uint64(len(corpus))]
				o := t.Run(p, seq)
				mu.Lock()
				rep.observe(p, seq, &o)
				if o.Latency > 0 {
					lats = append(lats, o.Latency)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep.DurationSec = elapsed.Seconds()
	rep.Throughput = float64(cfg.Requests) / elapsed.Seconds()
	rep.Latency = summarize(lats)
	rep.FailureRatio = float64(rep.UnbudgetedFailures+rep.WrongAnswers) / float64(cfg.Requests)
	rep.WithinBudget = rep.FailureRatio <= cfg.Budget
	if !rep.WithinBudget {
		rep.violate("unbudgeted failure ratio %.3f exceeds the budget %.3f (outcomes %v)",
			rep.FailureRatio, cfg.Budget, rep.Outcomes)
	}
	return rep
}

// observe is the oracle for one reply: a well-formed class; a shed
// carries its Retry-After hint; an executed job's class, error and
// output equal the reference's (a wall-clock deadline trip on either
// side is timing, not divergence); no reply reports a second execution
// of its key. Failures are tallied for the budget verdict.
func (r *Report) observe(p *Program, seq int64, o *Outcome) {
	label := o.Fail
	if label == "" {
		label = o.Class.String()
	}
	r.Outcomes[label]++
	if o.Deduped {
		r.DedupedReplies++
	}
	if o.Executions > 1 {
		r.DuplicateExecutions++
		r.violate("request %d (%s): executions stamp %d: a replay re-ran the job", seq, p.Name, o.Executions)
	}
	switch {
	case o.Fail == "no_backends" || o.Fail == "retry_budget_exhausted":
		r.BudgetedFailures++
	case o.Fail != "":
		r.UnbudgetedFailures++
	case o.Class >= supervise.NumClasses:
		r.violate("request %d: malformed class %d", seq, o.Class)
	case (o.Class == supervise.ClassOK) != (o.Err == ""):
		r.violate("request %d: class %s with err %q", seq, o.Class, o.Err)
	case o.Class == supervise.ClassShed:
		r.BudgetedFailures++
		if o.RetryAfter <= 0 {
			r.violate("request %d: shed without a Retry-After hint", seq)
		}
	case o.Class == supervise.ClassWedged:
		r.UnbudgetedFailures++
	default:
		r.Served++
		if strings.Contains(o.Err, "deadline") || strings.Contains(p.Want.Err, "deadline") {
			return
		}
		r.Verified++
		if o.Class != p.Want.Class || o.Err != p.Want.Err || o.Output != p.Want.Output {
			r.WrongAnswers++
			r.violate("request %d (%s, %s): got %s %q output %.160q, reference %s %q output %.160q",
				seq, p.Name, p.Mode, o.Class, o.Err, o.Output, p.Want.Class, p.Want.Err, p.Want.Output)
		}
	}
}

// summarize sorts and summarizes a latency sample.
func summarize(lats []time.Duration) Latency {
	if len(lats) == 0 {
		return Latency{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(q float64) float64 { return ms(lats[int(q*float64(len(lats)-1))]) }
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return Latency{
		P50Ms:  pct(0.50),
		P90Ms:  pct(0.90),
		P99Ms:  pct(0.99),
		MeanMs: ms(sum) / float64(len(lats)),
		MaxMs:  ms(lats[len(lats)-1]),
	}
}
