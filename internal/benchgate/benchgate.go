// Package benchgate is the single source of truth for the repo's
// performance regression gates. Each Gate names the benchmark guard
// test that enforces it and the minimum speedup it demands; the guard
// tests import their threshold from here and the CI workflow runs the
// guards listed here (see TestGateTable, which keeps the table and the
// workflow from drifting apart). Raising or lowering a gate is a
// one-line change in this file — never an inline constant in a test.
package benchgate

import "fmt"

// Gate is one performance regression gate.
type Gate struct {
	// Name identifies the gate (and keys Lookup).
	Name string
	// Package is the Go package holding the guard test, relative to the
	// module root.
	Package string
	// Test is the exact guard test function name CI must run.
	Test string
	// MinSpeedup is the wall-clock ratio (baseline / optimized) the
	// guard fails below. Exactly one of MinSpeedup and MaxOverheadPct is
	// set per gate.
	MinSpeedup float64
	// MaxOverheadPct is the overhead-form gate: the guard fails when the
	// feature leg's wall clock exceeds the baseline leg's by more than
	// this percentage. Used for features that must be near-free (e.g.
	// dedup bookkeeping on the router's hot path) rather than faster.
	MaxOverheadPct float64
	// Baseline and Optimized describe the two legs being compared.
	Baseline, Optimized string
}

// Table lists every gate. Order is stable for reporting.
var Table = []Gate{
	{
		Name:       "dispatch-quickened",
		Package:    "./internal/interp/",
		Test:       "TestQuickenedDispatchGuard",
		MinSpeedup: 1.4,
		Baseline:   "cold interpreter (quickening off)",
		Optimized:  "tier-2 quickened (poly ICs + fusion + unboxed-int)",
	},
	{
		Name:       "serving-unarmed",
		Package:    "./internal/runtime/",
		Test:       "TestServingUnarmedGuard",
		MinSpeedup: 3.0,
		Baseline:   "ServingConfig run with a CountSink armed (events built and delivered)",
		Optimized:  "the same run with no sink armed (no per-event work)",
	},
	{
		Name:           "router-dedup-overhead",
		Package:        "./internal/route/",
		Test:           "TestDedupOverheadGuard",
		MaxOverheadPct: 2.0,
		Baseline:       "routed requests without idempotency keys",
		Optimized:      "routed requests with per-request idempotency keys (dedup enabled)",
	},
	{
		Name:           "sched-overhead",
		Package:        "./internal/supervise/",
		Test:           "TestSchedOverheadGuard",
		MaxOverheadPct: 2.0,
		Baseline:       "single job in the exclusive configuration (NewPool)",
		Optimized:      "single job on the step-sliced scheduler (default quantum, no contention)",
	},
	{
		Name:           "progstore-lookup-overhead",
		Package:        "./internal/serve/",
		Test:           "TestProgstoreOverheadGuard",
		MaxOverheadPct: 1.0,
		Baseline:       "inline-source /v1/run (read-through program-store hit)",
		Optimized:      "run-by-reference /v1/run (program-store lookup by content hash)",
	},
}

// Lookup returns the gate with the given name, panicking on a miss —
// a bad gate name in a guard test is a programming error the test run
// should fail loudly on, not skip.
func Lookup(name string) Gate {
	for _, g := range Table {
		if g.Name == name {
			return g
		}
	}
	panic(fmt.Sprintf("benchgate: no gate named %q", name))
}
