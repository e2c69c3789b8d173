// Command pyload is the serving-stack load generator: it points the
// internal/harness driver at an external /v1/run endpoint with the
// harness corpus (compute kernels + generated programs, each stamped
// with its fresh-runner reference) under CPython, the serving tier's
// default mode, and emits a JSON report
// — latency distribution (p50/p90/p99), throughput, outcome counts,
// wrong-answer count, oracle violations and an error-budget verdict.
//
// With -baseline the same corpus is also driven against a second
// endpoint (typically a single pyserve, to measure a router's overhead)
// and the report carries both runs plus the p50/p99 deltas.
//
// Usage:
//
//	pyload -target http://router:8040 [-baseline http://pyserve:8042]
//	       [-n 200] [-c 8] [-corpus 24] [-seed 1] [-budget 0]
//	       [-by-ref] [-o report.json]
//
// With -by-ref the corpus is registered with the target's
// POST /v1/programs first and every request ships a programRef instead
// of inline source — the content-addressed program-store path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/runtime"
)

// comparison is the two-run report shape emitted when -baseline is set.
type comparison struct {
	Target   *harness.Report `json:"target"`
	Baseline *harness.Report `json:"baseline,omitempty"`
	// Overhead deltas of target over baseline, in percent (p50 and p99).
	OverheadP50Pct float64 `json:"overheadP50Pct,omitempty"`
	OverheadP99Pct float64 `json:"overheadP99Pct,omitempty"`
}

func run() int {
	var (
		target   = flag.String("target", "", "base URL of the tier under test (required)")
		baseline = flag.String("baseline", "", "optional second base URL to compare against (overhead measurement)")
		n        = flag.Int("n", 200, "total requests per run")
		c        = flag.Int("c", 8, "concurrent in-flight requests")
		corpusN  = flag.Int("corpus", 24, "corpus size in programs (compute kernels + generated programs)")
		seed     = flag.Uint64("seed", 1, "corpus generation and walk seed")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		budget   = flag.Float64("budget", 0, "allowed unbudgeted-failure ratio (error budget)")
		byRef    = flag.Bool("by-ref", false, "register the corpus via POST /v1/programs first and drive run-by-reference requests (programRef instead of inline src)")
		minServe = flag.Float64("min-served", 0.9, "minimum fraction of requests actually executed to an answer for the run to pass; budgeted rejections are within contract but a mostly-rejected run is not a usable measurement")
		out      = flag.String("o", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()
	if *target == "" {
		fmt.Fprintln(os.Stderr, "pyload: -target is required")
		return 2
	}

	fmt.Fprintf(os.Stderr, "pyload: building %d-program corpus (seed %d)\n", *corpusN, *seed)
	// CPython only, the mode serve runs when a request names none: the
	// latency and overhead figures then measure the serving tier over
	// one interpreter, not over a mix of modes.
	var corpus []harness.Program
	for _, p := range harness.Corpus(*corpusN, *seed) {
		if p.Mode == runtime.CPython {
			corpus = append(corpus, p)
		}
	}
	if len(corpus) == 0 {
		fmt.Fprintln(os.Stderr, "pyload: corpus generation produced nothing")
		return 1
	}

	drive := func(url string) (*harness.Report, error) {
		fmt.Fprintf(os.Stderr, "pyload: %d requests x %d concurrent -> %s\n", *n, *c, url)
		t := harness.NewHTTP(url, *c, *timeout)
		if *byRef {
			if err := t.Register(corpus); err != nil {
				return nil, err
			}
		}
		return harness.Drive(t, corpus, harness.Config{Requests: *n, Concurrency: *c, Seed: *seed, Budget: *budget}), nil
	}

	rep, err := drive(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pyload:", err)
		return 1
	}
	cmp := &comparison{Target: rep}
	if *baseline != "" {
		base, err := drive(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pyload:", err)
			return 1
		}
		cmp.Baseline = base
		if base.Latency.P50Ms > 0 {
			cmp.OverheadP50Pct = 100 * (rep.Latency.P50Ms - base.Latency.P50Ms) / base.Latency.P50Ms
		}
		if base.Latency.P99Ms > 0 {
			cmp.OverheadP99Pct = 100 * (rep.Latency.P99Ms - base.Latency.P99Ms) / base.Latency.P99Ms
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pyload:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cmp); err != nil {
		fmt.Fprintln(os.Stderr, "pyload:", err)
		return 1
	}

	verdict := func(name string, r *harness.Report) (ok bool) {
		served := float64(r.Served) / float64(r.Requests)
		switch {
		case !r.Ok():
			fmt.Fprintf(os.Stderr, "pyload: FAIL (%s: %d violations, %d wrong answers, unbudgeted failure ratio %.3f, budget %.3f)\n",
				name, len(r.Violations), r.WrongAnswers, r.FailureRatio, r.AllowedFailureRatio)
		case served < *minServe:
			// A run where most requests were rejected (shed, no backends)
			// is within the error budget but measures nothing.
			fmt.Fprintf(os.Stderr, "pyload: FAIL (%s: only %.0f%% of requests served, floor %.0f%%; outcomes %v)\n", name, 100*served, 100**minServe, r.Outcomes)
		default:
			return true
		}
		return false
	}
	ok := verdict("target", rep)
	if cmp.Baseline != nil {
		ok = verdict("baseline", cmp.Baseline) && ok
	}
	if !ok {
		return 1
	}
	fmt.Fprintln(os.Stderr, "pyload: ok")
	return 0
}

func main() { os.Exit(run()) }
