// Command pyfuzz soak-runs the differential execution oracle: it
// generates seeded MiniPy programs and executes each under the
// interpreter-only baseline and every JIT/GC leg, failing on any
// divergence in output, exception, or final globals, or on any runtime-
// statistics invariant violation. Divergences are minimized and written
// to the corpus directory as standalone reproducers.
//
// Usage:
//
//	pyfuzz -seed 1 -n 1000
//	pyfuzz -n 200 -corpus /tmp/corpus -nurseries 64,256,4096
//	pyfuzz -replay internal/difftest/corpus
//	pyfuzz -faults -n 200
//	pyfuzz -sched -n 500 -metrics
//	pyfuzz -quicken -n 500
//	pyfuzz -progstore -n 300
//
// With -quicken, the leg matrix narrows to the quickening soak: the
// tier-2 quickened interpreter as baseline against the cold interpreter
// (quickening disabled), inline-cache flush churn at several intervals
// (worst case: every cache invalidated after every fill), the tier-2
// ablation legs — poly-cold (monomorphic caches only), fusion-flush
// (superinstructions de-fused and re-fused on a tight cadence), and
// intfast-overflow (the unboxed-int magnitude cap lowered so the
// speculative arithmetic paths deopt constantly) — and a JIT leg that
// must observe the same guard state. Any behavioural effect of
// quickening, inline caches, polymorphic stubs, superinstruction
// fusion, or de-quickening shows up as a divergence.
//
// With -progstore, the leg matrix narrows to the content-addressed
// program store: the directly-compiled baseline against the store's
// shared code object cold, the portable IC-seed warm start, eviction
// and recompile churn in a capacity-2 store, and a seeded leg whose
// every seed import is damaged by SeedCorrupt fault injection. Seeds
// are advisory by contract — a wrong or damaged seed may cost refills
// but may never change output, exceptions, or final globals — so every
// leg is held to exact agreement with the baseline.
//
// With -faults, the run becomes a chaos soak: every leg except the
// baseline executes under seeded fault injection (allocation failures,
// nursery exhaustion, corrupted JIT guards, aborted trace compiles), and
// the oracle verifies faults only ever surface as well-formed Python
// exceptions — never as output divergences, internal errors, or host
// panics.
//
// With -sched, the attack moves up a layer: the same generated programs
// — plus long multi-quantum loops — run through the internal/supervise
// scheduler from concurrent submitters at a deliberately small quantum,
// so every long job is preempted many times, while a seeded wedge fault
// stalls every 40th job past the watchdog. The oracle diffs each
// executed result against a fresh exclusive reference run and verifies
// the supervision contract: wedges never take the scheduler down,
// neither faults nor park/resume interleavings cross-contaminate another
// job's output, and every outcome is a well-formed error class. With
// -metrics the soak scheduler is instrumented and the Prometheus
// exposition printed after the jobs drain.
//
// Exit status is nonzero if any divergence or invariant failure was
// observed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/difftest"
	"repro/internal/route"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

func run() int {
	var (
		seed      = flag.Uint64("seed", 1, "base seed; program i uses seed+i")
		n         = flag.Int("n", 200, "number of generated programs to check")
		corpus    = flag.String("corpus", "", "directory for minimized reproducers (empty: don't write)")
		replay    = flag.String("replay", "", "replay an existing corpus directory instead of generating")
		budget    = flag.Uint64("budget", 0, "per-leg bytecode budget (0: default)")
		nurseries = flag.String("nurseries", "", "comma-separated nursery sizes in KB (empty: 64,256,4096)")
		quiet     = flag.Bool("q", false, "suppress per-program progress")
		showGen   = flag.Uint64("print-seed", 0, "print the program for this seed and exit")
		faults    = flag.Bool("faults", false, "chaos soak: run faulted legs under seeded fault injection")
		faultRate = flag.Uint64("fault-rate", 1000, "with -faults, each fault kind fires ~1/rate per site visit")
		faultSeed = flag.Uint64("fault-seed", 0, "with -faults, injector seed (0: use -seed)")
		quicken   = flag.Bool("quicken", false, "quickening soak: focused leg matrix (cold interpreter, inline-cache flush churn, JIT) against the quickened baseline")
		progstore = flag.Bool("progstore", false, "program-store soak: store-cold, IC-seed warm start, eviction/recompile churn, and SeedCorrupt injection on the seed path, all diffed against the directly-compiled baseline")
		sched     = flag.Bool("sched", false, "scheduler-chaos soak: mixed long/short jobs through the step-sliced scheduler with forced preemption and injected wedges, each diffed against a fresh exclusive reference run")
		slots     = flag.Int("sched-slots", 2, "with -sched, concurrent execution slots")
		quantum   = flag.Uint64("sched-quantum", 2000, "with -sched, preemption granularity in bytecodes")
		metrics   = flag.Bool("metrics", false, "with -sched, instrument the soak scheduler and print the Prometheus exposition after the jobs drain")
		routing   = flag.Bool("route", false, "router chaos soak: drive a verified corpus through a real pyroute front over real replicas while backend kill/wedge/flap faults fire")
		downN     = flag.Uint64("route-down-every", 20, "with -route, kill replica 1 for good at this injector tick (0: never)")
		slowN     = flag.Uint64("route-slow-every", 35, "with -route, wedge the last replica every Nth tick (0: never)")
		flapN     = flag.Uint64("route-flap-every", 50, "with -route, bounce the last replica every Nth tick (0: never)")
		byteChaos = flag.Bool("route-bytechaos", false, "with -route, interpose byte-level chaos proxies (resets, stalls, truncation, corruption) and stamp every request with an idempotency key, arming the exactly-once oracle")
		reloadN   = flag.Uint64("route-reload-every", 0, "with -route, toggle one replica out of and back into the fleet every Nth tick via live reconfiguration (0: never)")
	)
	flag.Parse()

	if *showGen != 0 {
		fmt.Print(difftest.Generate(*showGen))
		return 0
	}

	if *routing {
		// Hedging on: a replica wedged for less than the ejection
		// hysteresis stalls its in-flight requests past the upstream
		// timeout, and those are not retry-safe — the hedge's duplicate
		// attempt is the only way to serve them.
		cfg := route.SoakConfig{
			Seed:         *seed,
			Jobs:         *n,
			DownEveryN:   *downN,
			SlowEveryN:   *slowN,
			FlapEveryN:   *flapN,
			ReloadEveryN: *reloadN,
			Hedge:        true,
		}
		if *byteChaos {
			// Byte chaos and hedging don't mix: a hedge duplicates an
			// attempt by design, which muddies the exactly-once audit.
			// Idempotency keys take over mid-flight recovery instead.
			cfg.Hedge = false
			cfg.ByteChaos = true
			cfg.IdempotencyKeys = true
			cfg.NetResetRate = 60
			cfg.NetTruncateRate = 60
			cfg.NetCorruptRate = 80
			cfg.NetDelayRate = 40
			cfg.NetStallRate = 400
			cfg.AllowedFailureRatio = 0.25
		}
		res := route.Soak(cfg)
		if rep := res.Report; rep != nil {
			fmt.Printf("route soak: %d requests, outcomes %v, %d wrong answers, %d budgeted / %d unbudgeted failures (ratio %.3f, budget %.3f)\n",
				rep.Requests, rep.Outcomes, rep.WrongAnswers,
				rep.BudgetedFailures, rep.UnbudgetedFailures, rep.FailureRatio, rep.AllowedFailureRatio)
			fmt.Printf("route soak: p50 %.1fms p99 %.1fms, %d ejections, %d readmits; killed=%d wedges=%d flaps=%d reloads=%d\n",
				rep.Latency.P50Ms, rep.Latency.P99Ms, res.Ejections, res.Readmits,
				res.Killed, res.Wedges, res.Flaps, res.Reloads)
			if cfg.IdempotencyKeys {
				fmt.Printf("route soak: exactly-once: %d deduped replies, %d duplicate executions, %d dedup hits, max executions/key %d\n",
					rep.DedupedReplies, rep.DuplicateExecutions, res.DedupHits, res.MaxExecutions)
			}
		}
		fmt.Println(res.Faults)
		if res.NetFaults != "" {
			fmt.Println(res.NetFaults)
		}
		for _, v := range res.Violations {
			fmt.Printf("violation: %s\n", v)
		}
		if !res.Ok() {
			return 1
		}
		return 0
	}

	if *sched {
		cfg := supervise.SchedSoakConfig{
			Seed:         *seed,
			Jobs:         *n,
			Slots:        *slots,
			QuantumSteps: *quantum,
			WedgeEveryN:  40,
		}
		var reg *telemetry.Registry
		if *metrics {
			reg = telemetry.NewRegistry()
			cfg.Metrics = supervise.NewMetrics(reg)
		}
		res := supervise.SchedSoak(cfg)
		s := res.Stats
		fmt.Printf("sched soak: %d jobs, %d completed, %d preemptions (%d reclaimed), %d shed, %d wedged, %d slots\n",
			res.Jobs, s.Completed, s.Preempted, s.Reclaimed, s.Shed, s.Wedged, s.Workers)
		for _, v := range res.Violations {
			fmt.Printf("violation: %s\n", v)
		}
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pyfuzz: metrics exposition: %v\n", err)
		}
		if !res.Ok() {
			return 1
		}
		return 0
	}

	var sizes []uint64
	if *nurseries != "" {
		for _, f := range strings.Split(*nurseries, ",") {
			kb, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil || kb == 0 {
				fmt.Fprintf(os.Stderr, "pyfuzz: bad nursery size %q\n", f)
				return 2
			}
			sizes = append(sizes, kb<<10)
		}
	}

	if *replay != "" {
		// LoadCorpus treats a missing directory as an empty corpus,
		// which is right for optional corpora but would make a typo'd
		// -replay path report success — require it to exist here.
		if st, err := os.Stat(*replay); err != nil || !st.IsDir() {
			fmt.Fprintf(os.Stderr, "pyfuzz: replay directory %s not found\n", *replay)
			return 2
		}
		legs := difftest.Legs(sizes, nil)
		divs, invs, err := difftest.RunCorpus(*replay, legs, *budget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pyfuzz: %v\n", err)
			return 2
		}
		for i := range divs {
			fmt.Printf("divergence: %s\n", divs[i].String())
		}
		for _, iv := range invs {
			fmt.Printf("invariant: %s\n", iv)
		}
		if len(divs)+len(invs) > 0 {
			return 1
		}
		fmt.Printf("corpus %s: conformant across %d legs\n", *replay, len(legs))
		return 0
	}

	opts := difftest.Options{
		Seed:      *seed,
		N:         *n,
		Nurseries: sizes,
		Budget:    *budget,
		CorpusDir: *corpus,
		Quicken:   *quicken,
		Progstore: *progstore,
	}
	if *progstore && (*quicken || *faults) {
		fmt.Fprintln(os.Stderr, "pyfuzz: -progstore is mutually exclusive with -quicken and -faults")
		return 2
	}
	if *faults {
		if *quicken {
			fmt.Fprintln(os.Stderr, "pyfuzz: -quicken and -faults are mutually exclusive")
			return 2
		}
		if *faultRate == 0 {
			fmt.Fprintln(os.Stderr, "pyfuzz: -fault-rate must be nonzero")
			return 2
		}
		opts.FaultRate = *faultRate
		opts.FaultSeed = *faultSeed
	}
	if !*quiet {
		opts.Progress = func(done int) {
			if done%25 == 0 || done == *n {
				fmt.Fprintf(os.Stderr, "pyfuzz: %d/%d programs\n", done, *n)
			}
		}
	}
	rep, err := difftest.RunWith(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pyfuzz: %v\n", err)
		return 2
	}
	fmt.Println(rep.Summary())
	for _, p := range rep.ReproPaths {
		fmt.Printf("reproducer written: %s\n", p)
	}
	if !rep.OK() {
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }
