// Command bench is the serving stack's benchmark: six named workloads,
// each built in-process over loopback TCP, driven from this process with
// 2 connections on 2 workers at GOMAXPROCS 2, every answer verified.
// The end-to-end leg runs with no probes installed; the traced leg
// installs timing decorators around the layers' public entry points and
// yields the per-layer table whose parts sum to the observed round trip.
// See README.md beside this file for the metric and workload tables.
//
//	go run ./bench                       every workload, both legs
//	go run ./bench -workload kernels-inline -seed 2
//	go run ./bench -repeat 2             run the set twice, compare within bounds
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                     one leg; last stdout line is the
//	                                     BENCHMARK.json contract object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: ISSUE 11 sized a
// workload at 25 s measured + 10 s traced; the contract's total-time cap
// (136 runs in 3,420 s, set-up and builds included) allows 10 s a leg.
const defaultSeconds = 10

// setUps is how many times the end-to-end leg sets its topology up:
// setup_s is the median, and the last one is measured.
const setUps = 5

// traceRequests is about how many requests of the traced leg are
// sampled: enough for a p99 with 25 samples beyond it, few enough that
// the span buffer does not change what it measures (layers.go Trace).
const traceRequests = 2500

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all)")
		seed     = flag.Int64("seed", 1, "seed for every lane, salt, order and replay choice")
		seconds  = flag.Int("seconds", defaultSeconds, "length of each measured leg")
		trace    = flag.String("trace", "both", "0: end-to-end leg, 1: traced leg, both")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times and compare the sets")
		outDir   = flag.String("out", "bench/out", "where result.json and trace-<workload>.json go")
	)
	flag.Parse()
	if *seconds < 1 || *repeat < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 1, -repeat >= 1, -trace 0|1|both")
		return 2
	}
	selected := workloads
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []*Workload{w}
	}
	runtime.GOMAXPROCS(benchProcs)
	corpus, err := LoadCorpus()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	res := Result{Environment: environment(*seed, *seconds)}
	dur := time.Duration(*seconds) * time.Second
	ok := true
	for set := 0; set < *repeat; set++ {
		var rows []WorkloadResult
		for _, w := range selected {
			row := WorkloadResult{Name: w.Name, Why: w.Why}
			if *trace != "1" {
				leg, err := runEndToEnd(w, corpus, *seed, dur)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				row.EndToEnd = leg
				printLeg(os.Stdout, fmt.Sprintf("set %d %s end-to-end", set+1, w.Name), endToEnd, leg)
				ok = ok && leg.Correct
			}
			if *trace != "0" {
				leg, err := runTraced(w, corpus, *seed, dur, *outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				row.PerLayer = leg
				printLeg(os.Stdout, fmt.Sprintf("set %d %s per-layer", set+1, w.Name), perLayer, leg)
				ok = ok && leg.Correct
			}
			rows = append(rows, row)
		}
		res.Sets = append(res.Sets, rows)
	}
	if err := writeJSON(*outDir, "result.json", res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *repeat > 1 && !compareSets(res.Sets) {
		ok = false
	}
	// One workload, one leg: the contract's result object, last.
	if len(selected) == 1 && *trace != "both" && *repeat == 1 {
		leg := res.Sets[0][0].EndToEnd
		if *trace == "1" {
			leg = res.Sets[0][0].PerLayer
		}
		line, err := json.Marshal(ContractLine{
			Correct: leg.Correct, Attempted: leg.Attempted, Failed: leg.Failed, Metrics: leg.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}
	if !ok {
		return 1
	}
	return 0
}

// measured says which connections' answers make the latency and
// throughput metrics: both, except on an open-loop workload, where they
// are the scheduled source's (connection 1) and connection 0 is
// background load.
func (w *Workload) measured(ph Phase) []*Tally {
	if w.OpenLoopGap > 0 {
		return ph.Conns[1:]
	}
	return ph.Conns[:]
}

// summary is what one measured phase reduces to.
type summary struct {
	rps, mbcPerS, p50, tail float64
	// samples is the number of latency samples; tailPct the percentile
	// tail is at: the workload's stated one, or the highest below it that
	// the samples support.
	samples int
	tailPct float64
}

// summarize reduces a phase: throughput is verified-correct completions
// per second over the measured connections, goodput the pinned bytecodes
// of correct answers per second over all connections, each connection
// over its own active time.
func (w *Workload) summarize(ph Phase) summary {
	var su summary
	var lats []float64
	for _, t := range w.measured(ph) {
		lats = append(lats, t.LatMs...)
		if el := t.elapsed(); el > 0 {
			su.rps += float64(t.Outcomes[outOK]) / el
		}
	}
	for _, t := range ph.Conns {
		if el := t.elapsed(); el > 0 {
			su.mbcPerS += float64(t.Steps) / 1e6 / el
		}
	}
	sort.Float64s(lats)
	su.samples = len(lats)
	su.tailPct = tailPercentile(len(lats), w.TailPct)
	su.p50 = median(lats)
	su.tail = percentile(lats, su.tailPct)
	return su
}

// legBase fills what both legs report: counts, outcome classes, samples.
func (w *Workload) legBase(ph Phase, su summary) *LegResult {
	leg := &LegResult{Outcomes: map[string]int{}, Samples: su.samples, TailPct: su.tailPct}
	for _, t := range ph.Conns {
		leg.Attempted += t.Attempted
		leg.Failed += t.Failed()
		for k, v := range t.Outcomes {
			leg.Outcomes[k] += v
		}
	}
	leg.Correct = leg.Failed == 0 && leg.Attempted > 0
	return leg
}

// runEndToEnd is the leg users' numbers come from: no probes installed.
func runEndToEnd(w *Workload, c *Corpus, seed int64, dur time.Duration) (*LegResult, error) {
	var top *Topology
	var setupSecs []float64
	for k := 0; k < setUps; k++ {
		if top != nil {
			top.Close()
		}
		t0 := time.Now()
		var err error
		if top, err = w.setUp(c, seed, nil); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer top.Close()
	runtime.GC()
	ph := w.drive(newDriver(top, "m"), c, seed, phaseMeasure, 0, dur)

	su := w.summarize(ph)
	leg := w.legBase(ph, su)
	leg.Metrics = metricsOf(endToEnd, map[string]float64{
		"throughput_rps": su.rps,
		"lat_p50_ms":     su.p50,
		"lat_tail_ms":    su.tail,
		"goodput_mbc_s":  su.mbcPerS,
		"setup_s":        median(sortedCopy(setupSecs)),
	})
	if su.tailPct != w.TailPct {
		leg.Notes = append(leg.Notes, fmt.Sprintf("lat_tail_ms is p%g: %d samples do not support p%g",
			su.tailPct, su.samples, w.TailPct))
	}
	return leg, nil
}

// runTraced is the per-layer leg: the decorated topology for two thirds
// of the time, an untraced baseline for a sixth before it and a sixth
// after it (a process runs faster once its heap has grown, so a baseline
// taken only before would flatter the tracing), then the direct probes.
func runTraced(w *Workload, c *Corpus, seed int64, dur time.Duration, outDir string) (*LegResult, error) {
	baseline := func() (float64, error) {
		top, err := w.setUp(c, seed, nil)
		if err != nil {
			return 0, err
		}
		defer top.Close()
		runtime.GC()
		ph := w.drive(newDriver(top, "b"), c, seed, phaseBaseline, 0, dur/6)
		return w.summarize(ph).rps, nil
	}
	before, err := baseline()
	if err != nil {
		return nil, err
	}
	tr := newTrace()
	top, err := w.setUp(c, seed, tr)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	countersBefore, procBefore := top.Counters(), readProc()
	tracedDur := dur - dur/3
	every := int(math.Ceil(before * tracedDur.Seconds() / traceRequests))
	if every < 1 {
		every = 1
	}
	ph := w.drive(newTracedDriver(top, tr, every), c, seed, phaseMeasure, 0, tracedDur)
	countersAfter, procAfter := top.Counters(), readProc()
	top.Close()
	spans := tr.snapshot()
	after, err := baseline()
	if err != nil {
		return nil, err
	}
	baseRps := (before + after) / 2

	su := w.summarize(ph)
	leg := w.legBase(ph, su)
	vals := map[string]float64{}
	if baseRps > 0 {
		vals["trace.overhead_pct"] = (1 - su.rps/baseRps) * 100
	}
	spanMetrics(w, spans, leg.TailPct, vals)
	tallyMetrics(w, ph, leg, countersBefore, countersAfter, vals)
	procMetrics(procBefore, procAfter, leg.Attempted, vals)
	leg.PerProgram, err = runProbes(w.probeSet(c, seed, ph), vals)
	if err != nil {
		return nil, err
	}
	leg.Metrics = metricsOf(perLayer, vals)

	if u := vals["trace.unattributed_pct"]; u > 5 {
		leg.Correct = false
		leg.Notes = append(leg.Notes, fmt.Sprintf("trace.unattributed_pct %.2f > 5: the parts do not sum to the whole", u))
	}
	if late := vals["client.late_ms_p99"]; late > 5 {
		leg.Notes = append(leg.Notes, fmt.Sprintf("client.late_ms_p99 %.2f ms > 5 ms: the open loop ran late, %s is unresolved", late, w.Name))
	}
	err = writeJSON(outDir, "trace-"+w.Name+".json", map[string]interface{}{
		"workload": w.Name, "seed": seed, "sampledOneIn": every, "spans": spans,
	})
	return leg, err
}

// spanLayers names the parts selfTimes splits a round trip into, in
// LayerTimes order.
var spanLayers = [...]string{
	"client.self", "route.self", "serve.self", "supervise.self", "supervise.queue_wait", "runtime.run",
}

// spanMetrics turns the traced run's spans into per-layer self times.
func spanMetrics(w *Workload, spans []Span, tailPct float64, vals map[string]float64) {
	byReq := map[string][]Span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var cols [len(spanLayers)][]float64
	var sums [len(spanLayers)]float64
	var total, unattributed float64
	var totals []float64
	for req, ss := range byReq {
		if w.OpenLoopGap > 0 && !strings.HasPrefix(req, "t1-") {
			continue // background connection: load, not the measured traffic
		}
		lt, ok := selfTimes(ss)
		if !ok {
			continue
		}
		total += float64(lt.Total)
		unattributed += float64(lt.Unattributed)
		totals = append(totals, float64(lt.Total)/1e3)
		for i, v := range [len(spanLayers)]int64{lt.Client, lt.Route, lt.Serve, lt.Supervise, lt.QueueWait, lt.Run} {
			cols[i] = append(cols[i], float64(v)/1e3)
			sums[i] += float64(v)
		}
	}
	vals["trace.requests"] = float64(len(totals))
	if total == 0 {
		return
	}
	for i, name := range spanLayers {
		sort.Float64s(cols[i])
		vals[name+"_us.p50"] = median(cols[i])
		vals[name+"_us.tail"] = percentile(cols[i], tailPct)
		// The Table II row: each layer's share of all the round-trip
		// time observed; with trace.unattributed_pct they sum to 100.
		vals[name+"_pct"] = sums[i] / total * 100
	}
	sort.Float64s(totals)
	vals["runtime.run_share"] = vals["runtime.run_us.p50"] / median(totals)
	vals["trace.unattributed_pct"] = unattributed / total * 100
}

// tallyMetrics fills the counts read from the responses and from the
// serving tier's own counters.
func tallyMetrics(w *Workload, ph Phase, leg *LegResult, before, after Counters, vals map[string]float64) {
	var ok, executed, seeded, attempts, preempt int
	var icHits, icMisses, minor, major uint64
	perBackend := map[string]int{}
	for _, t := range ph.Conns {
		ok += t.Outcomes[outOK]
		executed += t.Executed
		seeded += t.Seeded
		attempts += t.Attempts
		preempt += t.Preemptions
		icHits += t.ICHits
		icMisses += t.ICMisses
		minor += t.MinorGCs
		major += t.MajorGCs
		for b, n := range t.PerBackend {
			perBackend[b] += n
		}
	}
	if ok == 0 {
		return
	}
	k := float64(ok) / 1000
	if icHits+icMisses > 0 {
		vals["interp.ic_hit_rate"] = float64(icHits) / float64(icHits+icMisses)
	}
	vals["gc.minor_per_kreq"] = float64(minor) / k
	vals["gc.major_per_kreq"] = float64(major) / k
	vals["progstore.hits"] = float64(after.ProgHits - before.ProgHits)
	vals["progstore.misses"] = float64(after.ProgMisses - before.ProgMisses)
	if executed > 0 {
		vals["progstore.misses_per_req"] = float64(after.ProgMisses-before.ProgMisses) / float64(executed)
	}
	vals["progstore.evictions"] = float64(after.ProgEvictions - before.ProgEvictions)
	vals["progstore.seeded_share"] = float64(seeded) / float64(ok)
	vals["serve.dedup_hits"] = float64(after.DedupHits - before.DedupHits)
	vals["serve.dedup_recorded"] = float64(after.DedupRecorded - before.DedupRecorded)
	vals["serve.dedup_evictions"] = float64(after.DedupEvictions - before.DedupEvictions)
	vals["serve.shed"] = float64(after.Shed - before.Shed)
	vals["supervise.restarts"] = float64(after.Restarts - before.Restarts)
	vals["supervise.preemptions_per_job"] = float64(preempt) / float64(ok)
	if len(perBackend) > 0 {
		vals["route.attempts_per_req"] = float64(attempts) / float64(ok)
		vals["route.retries"] = float64(attempts - ok)
		most := 0
		for _, n := range perBackend {
			if n > most {
				most = n
			}
		}
		vals["route.backend_share_max"] = float64(most) / float64(ok)
	}
	vals["client.samples"] = float64(leg.Samples)
	vals["failed_share"] = float64(leg.Failed) / float64(leg.Attempted)
	if w.OpenLoopGap > 0 {
		late := sortedCopy(ph.Conns[1].LateMs)
		vals["client.late_ms_p99"] = percentile(late, tailPercentile(len(late), 99))
		if el := ph.Conns[0].elapsed(); el > 0 {
			vals["bg_rps"] = float64(ph.Conns[0].Outcomes[outOK]) / el
		}
	}
}

// probeSet collects what w's traffic is made of: each distinct program
// once, the body the client sends for it, and one answer from the run.
func (w *Workload) probeSet(c *Corpus, seed int64, ph Phase) *probeSet {
	ps := &probeSet{}
	seen := map[string]bool{}
	for conn, s := range w.streams(c, seed, phaseMeasure) {
		for i := 0; i < s.distinct(); i++ {
			rq := s.next(i)
			if seen[rq.Prog.Name] {
				continue
			}
			seen[rq.Prog.Name] = true
			ps.progs = append(ps.progs, rq.Prog)
			ps.bodies = append(ps.bodies, rq.body(fmt.Sprintf("p%d-%d", conn, i)))
		}
	}
	for _, t := range ph.Conns {
		if t.Sample != nil {
			ps.response = *t.Sample
			break
		}
	}
	return ps
}

// compareSets prints, per workload × end-to-end metric, the first set's
// value beside each later set's, their relative difference and the
// bound, and reports whether every pair agrees within its bound.
func compareSets(sets [][]WorkloadResult) bool {
	agree := true
	fmt.Printf("\n%-20s %-16s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set n", "diff", "bound")
	for n := 1; n < len(sets); n++ {
		for i, first := range sets[0] {
			a, b := first.EndToEnd, sets[n][i].EndToEnd
			if a == nil || b == nil {
				continue
			}
			for _, d := range endToEnd {
				va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
				diff := math.Abs(vb-va) / va
				verdict := ""
				if !(diff <= d.Bound) {
					verdict = "  MISS"
					agree = false
				}
				fmt.Printf("%-20s %-16s %14.4f %14.4f %7.1f%% %7.1f%%%s\n",
					first.Name, d.Name, va, vb, diff*100, d.Bound*100, verdict)
			}
			if a.Failed+b.Failed > 0 {
				fmt.Printf("%-20s failed %d and %d  MISS\n", first.Name, a.Failed, b.Failed)
				agree = false
			}
		}
	}
	return agree
}
