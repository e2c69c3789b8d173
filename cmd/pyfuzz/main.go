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
//	pyfuzz -quicken -n 500
//	pyfuzz -progstore -n 300
//	pyfuzz -stack sched -n 500
//	pyfuzz -stack route -chaos kill,wedge,flap,bytes,reload -n 150
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
// With -stack, the attack moves up into the serving stack: the
// internal/harness soak drives its reference-stamped corpus through one
// depth — runner, sched, serve or route — while -chaos fires wedge,
// kill, flap, bytes and reload faults (default: wedge at sched;
// kill,wedge,flap at route; "none" for none). It prints the report as
// JSON (outcomes, faults fired per kind, violations) and the stack's
// metrics exposition.
//
// Exit status is nonzero if any divergence or invariant failure was
// observed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/difftest"
	"repro/internal/harness"
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
		stack     = flag.String("stack", "", "soak one serving-stack depth instead: runner, sched, serve or route")
		chaos     = flag.String("chaos", "", "with -stack, comma-separated faults to fire: wedge, kill, flap, bytes, reload (default: the stack's CI set; none: no faults)")
	)
	flag.Parse()

	if *showGen != 0 {
		fmt.Print(difftest.Generate(*showGen))
		return 0
	}

	if *stack != "" {
		rep, err := harness.Soak(*stack, *chaos, *n, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pyfuzz: %v\n", err)
			return 2
		}
		out, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Printf("%s\n%s", out, rep.Exposition)
		if !rep.Ok() {
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

	opts := difftest.Options{
		Seed:      *seed,
		N:         *n,
		Nurseries: sizes,
		Budget:    *budget,
		CorpusDir: *corpus,
		Quicken:   *quicken,
		Progstore: *progstore,
		FaultSeed: *faultSeed,
	}
	if *faults {
		if *faultRate == 0 {
			fmt.Fprintln(os.Stderr, "pyfuzz: -fault-rate must be nonzero")
			return 2
		}
		opts.FaultRate = *faultRate
	}
	legs, err := opts.Matrix()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pyfuzz: %v\n", err)
		return 2
	}

	if *replay != "" {
		// LoadCorpus treats a missing directory as an empty corpus,
		// which is right for optional corpora but would make a typo'd
		// -replay path report success — require it to exist here.
		if st, err := os.Stat(*replay); err != nil || !st.IsDir() {
			fmt.Fprintf(os.Stderr, "pyfuzz: replay directory %s not found\n", *replay)
			return 2
		}
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
