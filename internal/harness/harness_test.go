package harness

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

func TestMixedCorpusStampsExpectations(t *testing.T) {
	corpus := Corpus(10, 42)
	if len(corpus) < 32 {
		t.Fatalf("corpus has %d entries, want >= 32 (10 sources x 4 modes, less limit trips)", len(corpus))
	}
	okWithStdout := 0
	for _, p := range corpus {
		if p.Src == "" || p.Name == "" {
			t.Fatalf("corpus entry %q has empty name or source", p.Name)
		}
		if p.Want == nil {
			t.Fatalf("corpus entry %q has no reference", p.Name)
		}
		if p.Want.Class == supervise.ClassOK && p.Want.Output != "" {
			okWithStdout++
		}
	}
	if okWithStdout == 0 {
		t.Fatal("no corpus entry carries a stdout expectation")
	}
	// Determinism: same seed, same corpus.
	again := Corpus(10, 42)
	for i := range corpus {
		if corpus[i].Src != again[i].Src || corpus[i].Mode != again[i].Mode || corpus[i].Want.Output != again[i].Want.Output || corpus[i].Want.Class != again[i].Want.Class {
			t.Fatalf("corpus entry %d differs across identically-seeded builds", i)
		}
	}
}

var (
	corpusMu sync.Mutex
	corpora  = make(map[int][]Program)
)

// testCorpus is stack's soak corpus at seed 1, stamped once and shared
// by the tests that drive a stack: stamping is most of a small soak's
// cost.
func testCorpus(stack string) []Program {
	n := stacks[stack].sources
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if corpora[n] == nil {
		corpora[n] = Corpus(n, 1)
	}
	return corpora[n]
}

// servePool is one serve over two exclusive workers behind httptest.
func servePool(t *testing.T) *httptest.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{Workers: 2, Metrics: supervise.NewMetrics(reg), DefaultLimits: limits})
	t.Cleanup(pool.Close)
	ts := httptest.NewServer(serve.NewWithOptions(pool, reg, serve.Options{DrainTimeout: time.Second}).Mux())
	t.Cleanup(ts.Close)
	return ts
}

func TestRunAgainstRealBackend(t *testing.T) {
	ts := servePool(t)
	rep := Drive(NewHTTP(ts.URL, 4, 30*time.Second), testCorpus("serve"), Config{Concurrency: 4, Requests: 40})
	if rep.Served != 40 {
		t.Fatalf("outcomes %v, want all 40 served", rep.Outcomes)
	}
	if !rep.Ok() {
		t.Fatalf("violations against a healthy backend: %v", rep.Violations)
	}
	if rep.Verified == 0 {
		t.Fatal("no responses were verified against the reference")
	}
	if rep.Latency.P50Ms <= 0 || rep.Latency.P99Ms < rep.Latency.P50Ms {
		t.Fatalf("implausible latency summary: %+v", rep.Latency)
	}
}

func TestRunByRefAgainstRealBackend(t *testing.T) {
	ts := servePool(t)
	// By reference, the corpus is registered first and requests ship
	// only programRefs; the answers must verify exactly like inline.
	h := NewHTTP(ts.URL, 4, 30*time.Second)
	if err := h.Register(testCorpus("serve")); err != nil {
		t.Fatal(err)
	}
	rep := Drive(h, testCorpus("serve"), Config{Concurrency: 4, Requests: 40})
	if rep.Served != 40 {
		t.Fatalf("outcomes %v, want all 40 served", rep.Outcomes)
	}
	if !rep.Ok() {
		t.Fatalf("violations on the run-by-reference path: %v", rep.Violations)
	}
	if rep.Verified == 0 {
		t.Fatal("no responses were verified against the reference")
	}
}

func TestRunBudgetsSheds(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"apiVersion":"v1","exitClass":"shed","error":"shed: queue full","retryAfterMs":1000}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	prog := []Program{{Name: "x", Src: "print(1)\n", Want: &supervise.JobResult{Output: "1\n"}}}
	rep := Drive(NewHTTP(ts.URL, 2, 30*time.Second), prog, Config{Concurrency: 2, Requests: 10})
	if rep.BudgetedFailures != 10 || rep.UnbudgetedFailures != 0 {
		t.Fatalf("budgeted=%d unbudgeted=%d, want 10/0: sheds are budgeted", rep.BudgetedFailures, rep.UnbudgetedFailures)
	}
	if !rep.WithinBudget || !rep.Ok() {
		t.Fatalf("pure sheds must stay within the error budget: %v", rep.Violations)
	}
}

// corruptOne flips the stdout of the first verified reply: the oracle
// must see exactly that one wrong answer.
type corruptOne struct {
	Target
	done atomic.Bool
}

func (c *corruptOne) Run(p *Program, seq int64) Outcome {
	o := c.Target.Run(p, seq)
	if o.Fail == "" && o.Class == supervise.ClassOK && !strings.Contains(p.Want.Err, "deadline") && c.done.CompareAndSwap(false, true) {
		o.Output += "corrupted\n"
	}
	return o
}

// TestRunDetectsWrongAnswers: the oracle is not vacuous at any depth. A
// reply whose stdout is corrupted after the stack answered must surface
// as exactly one wrong answer, whichever stack answered it.
func TestRunDetectsWrongAnswers(t *testing.T) {
	for _, stack := range []string{"runner", "sched", "serve", "route"} {
		t.Run(stack, func(t *testing.T) {
			if stack == "route" && raceEnabled {
				// The router's upstream timeout is wall-clock: under the
				// detector's slowdown heavy jobs outlast it, and the
				// fleet stops serving for reasons unrelated to the oracle.
				t.Skip("route depth skipped under the race detector")
			}
			rep, err := soak(stack, "none", 40, 3, testCorpus(stack), func(t Target) Target { return &corruptOne{Target: t} })
			if err != nil {
				t.Fatal(err)
			}
			if rep.WrongAnswers != 1 {
				t.Fatalf("WrongAnswers = %d, want 1 (violations %v)", rep.WrongAnswers, rep.Violations)
			}
			wrong := 0
			for _, v := range rep.Violations {
				switch {
				case strings.Contains(v, "reference"):
					wrong++
				case !strings.Contains(v, "exceeds the budget"):
					t.Errorf("unexpected violation: %s", v)
				}
			}
			if wrong != 1 {
				t.Fatalf("%d wrong-answer violations, want 1: %v", wrong, rep.Violations)
			}
		})
	}
}

// TestServeSoakReplays: every replayed key is answered from the dedup
// cache and no key executes twice.
func TestServeSoakReplays(t *testing.T) {
	rep, err := soak("serve", "none", 40, 5, testCorpus("serve"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("serve soak violations: %v", rep.Violations)
	}
	if rep.DedupedReplies != 10 || rep.MaxExecutions != 1 {
		t.Fatalf("deduped replies %d, max executions %d; want 10 and 1", rep.DedupedReplies, rep.MaxExecutions)
	}
}

// TestSchedSoakClean: the scheduler soak with no faults armed is a pure
// interleaving-conformance run — zero violations, and the forced-
// preemption shape must actually preempt.
func TestSchedSoakClean(t *testing.T) {
	rep, err := soak("sched", "none", 60, 1, testCorpus("sched"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("clean sched soak violations: %v", rep.Violations)
	}
	if rep.Sched.Preempted == 0 {
		t.Fatalf("clean sched soak never preempted: %+v", rep.Sched)
	}
}

// TestSchedSoakUnderWedgeFaults: injected wedges may cost the wedged
// job, but never the scheduler, never another job's output.
func TestSchedSoakUnderWedgeFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	rep, err := soak("sched", "wedge", 120, 7, testCorpus("sched"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("sched soak violations: %v", rep.Violations)
	}
	if rep.Sched.Wedged == 0 || rep.Fired["wedge"] == 0 {
		t.Fatalf("wedge schedule never fired; soak proves nothing: %+v", rep.Sched)
	}
}

// skipWallClockSoak skips the route chaos soaks where they measure the
// machine instead of the router.
func skipWallClockSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	if raceEnabled {
		// The fault cadence is wall-clock-driven; under the race
		// detector's slowdown (on small machines, ~10x with several
		// interpreter pools sharing the cores) faults outpace throughput
		// and the run measures the detector, not the router. Race
		// coverage of the router comes from its own package.
		t.Skip("chaos soak skipped under the race detector")
	}
}

// TestRouterChaosSoak: three real replicas behind a real pyroute front,
// one killed for good early in the run, the last one wedging and
// flapping throughout — zero wrong answers, zero transport errors,
// failures within the budget, service continues on the survivors.
func TestRouterChaosSoak(t *testing.T) {
	skipWallClockSoak(t)
	rep, err := soak("route", "kill,wedge,flap", 150, 7, testCorpus("route"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	logReport(t, rep)
	if n := rep.Fired["kill"]; n != 1 {
		t.Errorf("kill fault fired %d times, want exactly 1", n)
	}
	if rep.Fired["wedge"] == 0 {
		t.Error("wedge fault never fired")
	}
	if rep.Fired["flap"] == 0 {
		t.Error("flap fault never fired")
	}
	if rep.Ejections == 0 {
		t.Error("router never ejected the killed replica")
	}
}

// TestRouterByteChaosSoak: four replicas behind byte-mangling chaos
// proxies, one killed for good, one toggled out of and back into the
// fleet by live reconfiguration, every request keyed — zero wrong
// answers, zero duplicate executions, replays absorbed by the backends'
// dedup caches.
func TestRouterByteChaosSoak(t *testing.T) {
	skipWallClockSoak(t)
	rep, err := soak("route", "kill,reload,bytes", 150, 11, testCorpus("route"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	logReport(t, rep)
	if rep.Fired["reload"] == 0 {
		t.Error("no live reconfiguration was driven")
	}
	var net uint64
	for k, n := range rep.Fired {
		if strings.HasPrefix(k, "net-") {
			net += n
		}
	}
	if net == 0 {
		t.Error("byte-chaos injector reported no activity")
	}
}

// TestSoakRejectsChaos: a stack fires only the chaos kinds it has.
func TestSoakRejectsChaos(t *testing.T) {
	for _, c := range [][2]string{{"runner", "kill"}, {"sched", "bytes"}, {"serve", "wedge"}, {"route", "melt"}, {"fleet", ""}} {
		if _, err := Soak(c[0], c[1], 1, 1); err == nil {
			t.Errorf("Soak(%q, %q) accepted", c[0], c[1])
		}
	}
}

func logReport(t *testing.T, rep *Report) {
	out, _ := json.Marshal(rep)
	t.Logf("%s", out)
}
