package load

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

var testLimits = interp.Limits{
	MaxSteps:       20_000_000,
	MaxHeapBytes:   128 << 20,
	Deadline:       5 * time.Second,
	MaxOutputBytes: 1 << 20,
}

func TestMixedCorpusStampsExpectations(t *testing.T) {
	corpus := MixedCorpus(10, 42, testLimits)
	if len(corpus) < 8 {
		t.Fatalf("corpus has %d programs, want >= 8", len(corpus))
	}
	okWithStdout := 0
	for _, p := range corpus {
		if p.Src == "" || p.Name == "" {
			t.Fatalf("corpus entry %q has empty name or source", p.Name)
		}
		if p.WantClass == "" {
			t.Fatalf("corpus entry %q has no expectation", p.Name)
		}
		if p.WantClass == "ok" && p.WantStdout != "" {
			okWithStdout++
		}
	}
	if okWithStdout == 0 {
		t.Fatal("no corpus entry carries a stdout expectation")
	}
	// Determinism: same seed, same corpus.
	again := MixedCorpus(10, 42, testLimits)
	for i := range corpus {
		if corpus[i].Src != again[i].Src || corpus[i].WantStdout != again[i].WantStdout {
			t.Fatalf("corpus entry %d differs across identically-seeded builds", i)
		}
	}
}

func TestRunAgainstRealBackend(t *testing.T) {
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{
		Workers:       2,
		Metrics:       supervise.NewMetrics(reg),
		DefaultLimits: testLimits,
	})
	defer pool.Close()
	ts := httptest.NewServer(serve.NewWithOptions(pool, reg, serve.Options{DrainTimeout: time.Second}).Mux())
	defer ts.Close()

	rep, err := Run(Config{
		Target:      ts.URL,
		Corpus:      MixedCorpus(8, 7, testLimits),
		Concurrency: 4,
		Requests:    40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes["ok"]+rep.Outcomes["python_error"] != 40 {
		t.Fatalf("outcomes %v, want all 40 served", rep.Outcomes)
	}
	if rep.WrongAnswers != 0 {
		t.Fatalf("%d wrong answers against a healthy backend", rep.WrongAnswers)
	}
	if rep.Verified == 0 {
		t.Fatal("no responses were verified against expectations")
	}
	if !rep.WithinBudget {
		t.Fatalf("healthy run outside error budget: %+v", rep)
	}
	if rep.Latency.P50Ms <= 0 || rep.Latency.P99Ms < rep.Latency.P50Ms {
		t.Fatalf("implausible latency summary: %+v", rep.Latency)
	}
}

func TestRunDetectsWrongAnswers(t *testing.T) {
	// A backend that serves 200s with the wrong stdout: status-level
	// checks pass, answer verification must not.
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"apiVersion":"v1","exitClass":"ok","stdout":"wrong\n"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Run(Config{
		Target: ts.URL,
		Corpus: []Program{{Name: "lie", Src: "print(1)\n", WantClass: "ok", WantStdout: "1\n"}},
		Concurrency: 2,
		Requests:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WrongAnswers != 10 {
		t.Fatalf("WrongAnswers = %d, want 10", rep.WrongAnswers)
	}
	if rep.WithinBudget {
		t.Fatal("wrong answers must blow the error budget")
	}
}

func TestRunBudgetsSheds(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"apiVersion":"v1","exitClass":"shed","retryAfterMs":1000}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Run(Config{
		Target:      ts.URL,
		Corpus:      []Program{{Name: "x", Src: "print(1)\n"}},
		Concurrency: 2,
		Requests:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BudgetedFailures != 10 || rep.UnbudgetedFailures != 0 {
		t.Fatalf("budgeted=%d unbudgeted=%d, want 10/0: sheds are budgeted", rep.BudgetedFailures, rep.UnbudgetedFailures)
	}
	if !rep.WithinBudget {
		t.Fatal("pure sheds must stay within the error budget")
	}
}

func TestRunByRefAgainstRealBackend(t *testing.T) {
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{
		Workers:       2,
		Metrics:       supervise.NewMetrics(reg),
		DefaultLimits: testLimits,
	})
	defer pool.Close()
	ts := httptest.NewServer(serve.NewWithOptions(pool, reg, serve.Options{DrainTimeout: time.Second}).Mux())
	defer ts.Close()

	// ByRef registers the corpus first and ships only programRefs; the
	// answers must verify exactly like the inline drive.
	rep, err := Run(Config{
		Target:      ts.URL,
		Corpus:      MixedCorpus(8, 7, testLimits),
		Concurrency: 4,
		Requests:    40,
		ByRef:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes["ok"]+rep.Outcomes["python_error"] != 40 {
		t.Fatalf("outcomes %v, want all 40 served", rep.Outcomes)
	}
	if rep.WrongAnswers != 0 {
		t.Fatalf("%d wrong answers on the run-by-reference path", rep.WrongAnswers)
	}
	if rep.Verified == 0 {
		t.Fatal("no responses were verified against expectations")
	}
}
