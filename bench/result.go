package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// MetricDef names one metric of the benchmark. The tables below are the
// source BENCHMARK.json is written from; bench_test.go holds the two in
// step.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference value an end-to-end metric may
	// worsen by before it counts as a regression; unset on per-layer
	// metrics.
	Bound float64
	// Moves says which end-to-end metric on which workload the per-layer
	// metric should move (README's interaction table, kept beside the
	// name so the two cannot drift).
	Moves string
}

// endToEnd are the metrics a user of the serving stack sees. ISSUE 11
// names six; the contract wants metrics that are never zero and printed
// on every workload, so failed_share travels as failed/attempted (and as
// a per-layer metric of the same name) and bg_rps, which only
// mixed-lanes has, is carried by goodput_mbc_s: on mixed-lanes the
// lane-1 jobs are >99% of the bytecodes, so it is their rate.
//
// The bounds are wide because single runs on this 2-vCPU sandbox are:
// over ten seeds, interleaved across workloads, the quartile spread of one
// workload reached 8.5% on throughput, 12% on p50, 15% on the tail and
// 16% on set-up, from slow stretches of 3-15 s that no 10 s run can
// average out (README, "Steadiness"). A bound has to clear the spread of
// the noisiest workload; comparisons of medians over ten runs resolve far
// less than the bound.
var endToEnd = []MetricDef{
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "goodput_mbc_s", Unit: "Mbc/s", Better: "higher", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []MetricDef{
	// Span self times (stats.go selfTimes).
	{Name: "client.self_us.p50", Unit: "us", Better: "lower", Moves: "lat_p50_ms, throughput_rps on handlers-direct"},
	{Name: "client.self_us.tail", Unit: "us", Better: "lower", Moves: "lat_tail_ms on handlers-direct"},
	{Name: "route.self_us.p50", Unit: "us", Better: "lower", Moves: "lat_p50_ms on handlers-routed only"},
	{Name: "route.self_us.tail", Unit: "us", Better: "lower", Moves: "lat_tail_ms on handlers-routed only"},
	{Name: "serve.self_us.p50", Unit: "us", Better: "lower", Moves: "lat_p50_ms, throughput_rps on handlers-direct, unique-inline"},
	{Name: "serve.self_us.tail", Unit: "us", Better: "lower", Moves: "lat_tail_ms on handlers-direct, unique-inline"},
	{Name: "supervise.self_us.p50", Unit: "us", Better: "lower", Moves: "lat_p50_ms, throughput_rps on handlers-direct"},
	{Name: "supervise.self_us.tail", Unit: "us", Better: "lower", Moves: "lat_tail_ms on handlers-direct"},
	{Name: "supervise.queue_wait_us.p50", Unit: "us", Better: "lower", Moves: "lat_p50_ms on mixed-lanes"},
	{Name: "supervise.queue_wait_us.tail", Unit: "us", Better: "lower", Moves: "lat_tail_ms on mixed-lanes, handlers-routed"},
	{Name: "runtime.run_us.p50", Unit: "us", Better: "lower", Moves: "every metric on kernels-*"},
	{Name: "runtime.run_us.tail", Unit: "us", Better: "lower", Moves: "lat_tail_ms on kernels-*"},
	// The Table II row: shares of all observed round-trip time; with
	// trace.unattributed_pct they sum to 100.
	{Name: "client.self_pct", Unit: "%", Better: "lower", Moves: "throughput_rps on handlers-direct"},
	{Name: "route.self_pct", Unit: "%", Better: "lower", Moves: "throughput_rps on handlers-routed"},
	{Name: "serve.self_pct", Unit: "%", Better: "lower", Moves: "throughput_rps on handlers-direct, unique-inline"},
	{Name: "supervise.self_pct", Unit: "%", Better: "lower", Moves: "throughput_rps on handlers-direct"},
	{Name: "supervise.queue_wait_pct", Unit: "%", Better: "lower", Moves: "lat_p50_ms on handlers-routed, mixed-lanes"},
	{Name: "runtime.run_pct", Unit: "%", Better: "lower", Moves: "every metric on kernels-*"},
	{Name: "runtime.run_share", Unit: "ratio", Better: "lower", Moves: "separates the workloads: >=0.9 kernels-inline, <=0.75 handlers-direct"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower", Moves: "none; above 5 the traced run fails"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "none; traced vs untraced throughput_rps"},
	{Name: "trace.requests", Unit: "count", Better: "higher", Moves: "none; requests the span statistics rest on"},

	// Direct probes (probes.go).
	{Name: "api.digest_us_per_kb", Unit: "us/KB", Better: "lower", Moves: "throughput_rps on handlers-routed"},
	{Name: "api.decode_us", Unit: "us", Better: "lower", Moves: "throughput_rps on handlers-direct, unique-inline"},
	{Name: "api.encode_us", Unit: "us", Better: "lower", Moves: "throughput_rps on handlers-direct, kernels-attributed"},
	{Name: "progstore.lookup_ns", Unit: "ns", Better: "lower", Moves: "throughput_rps on handlers-direct"},
	{Name: "progstore.register_miss_us", Unit: "us", Better: "lower", Moves: "throughput_rps on unique-inline"},
	{Name: "pycompile.us_per_kb", Unit: "us/KB", Better: "lower", Moves: "throughput_rps on unique-inline"},
	{Name: "runtime.reset_us", Unit: "us", Better: "lower", Moves: "throughput_rps on handlers-direct"},
	{Name: "interp.mbc_per_s.unarmed", Unit: "Mbc/s", Better: "higher", Moves: "throughput_rps on kernels-inline"},
	{Name: "interp.mbc_per_s.armed", Unit: "Mbc/s", Better: "higher", Moves: "throughput_rps on kernels-attributed"},
	{Name: "interp.mbc_per_s.cold", Unit: "Mbc/s", Better: "higher", Moves: "none served; the NoQuicken reference"},
	{Name: "interp.mbc_per_s.tier1", Unit: "Mbc/s", Better: "higher", Moves: "none served; the NoTier2 ablation"},
	{Name: "interp.mbc_per_s.pypy-jit", Unit: "Mbc/s", Better: "higher", Moves: "none served; mode pypy-jit"},
	{Name: "emit.armed_over_unarmed", Unit: "ratio", Better: "lower", Moves: "kernels-attributed vs kernels-inline throughput_rps"},
	{Name: "uarch.minstr_per_s", Unit: "Minstr/s", Better: "higher", Moves: "throughput_rps on kernels-attributed"},

	// Counts at the same boundaries.
	{Name: "interp.bytecodes_per_req", Unit: "count", Better: "lower", Moves: "none; must repeat exactly"},
	{Name: "uarch.sim_cycles_per_req", Unit: "count", Better: "lower", Moves: "none; must repeat exactly"},
	{Name: "interp.ic_hit_rate", Unit: "ratio", Better: "higher", Moves: "runtime.run_us on every workload"},
	{Name: "gc.minor_per_kreq", Unit: "count", Better: "lower", Moves: "runtime.run_us on kernels-*"},
	{Name: "gc.major_per_kreq", Unit: "count", Better: "lower", Moves: "runtime.run_us on kernels-*"},
	{Name: "progstore.hits", Unit: "count", Better: "higher", Moves: "throughput_rps on handlers-*"},
	{Name: "progstore.misses", Unit: "count", Better: "lower", Moves: "throughput_rps on unique-inline"},
	{Name: "progstore.misses_per_req", Unit: "ratio", Better: "lower", Moves: "none; 1 on unique-inline, 0 on by-ref workloads"},
	{Name: "progstore.evictions", Unit: "count", Better: "lower", Moves: "proc.peak_rss_mb on unique-inline"},
	{Name: "progstore.seeded_share", Unit: "ratio", Better: "higher", Moves: "runtime.run_us on handlers-*"},
	{Name: "serve.dedup_hits", Unit: "count", Better: "higher", Moves: "none; equals replays on handlers-routed"},
	{Name: "serve.dedup_recorded", Unit: "count", Better: "higher", Moves: "none; equals fresh keys on handlers-routed"},
	{Name: "serve.dedup_evictions", Unit: "count", Better: "lower", Moves: "proc.peak_rss_mb on handlers-routed"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "failed on every workload"},
	{Name: "supervise.preemptions_per_job", Unit: "count", Better: "lower", Moves: "goodput_mbc_s on mixed-lanes"},
	{Name: "supervise.restarts", Unit: "count", Better: "lower", Moves: "lat_tail_ms on every workload"},
	{Name: "route.attempts_per_req", Unit: "ratio", Better: "lower", Moves: "lat_tail_ms on handlers-routed"},
	{Name: "route.retries", Unit: "count", Better: "lower", Moves: "lat_tail_ms on handlers-routed"},
	{Name: "route.backend_share_max", Unit: "ratio", Better: "lower", Moves: "supervise.queue_wait_us, lat_p50_ms on handlers-routed"},
	{Name: "client.late_ms_p99", Unit: "ms", Better: "lower", Moves: "none; above 5 marks mixed-lanes unresolved"},
	{Name: "client.samples", Unit: "count", Better: "higher", Moves: "none; latency samples of the traced leg"},
	{Name: "bg_rps", Unit: "1/s", Better: "higher", Moves: "goodput_mbc_s on mixed-lanes (lane-1 completions per second)"},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Moves: "failed on every workload"},

	// The Go process.
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none; unbounded growth shows on unique-inline"},
	{Name: "proc.cpu_s_per_kreq", Unit: "s", Better: "lower", Moves: "throughput_rps on every workload"},
	{Name: "proc.alloc_mb_per_kreq", Unit: "MB", Better: "lower", Moves: "proc.gc_pause_ms, lat_tail_ms"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "lat_tail_ms on handlers-*"},
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf pairs measured values with the units the tables give them; a
// metric the run did not produce is reported as zero.
func metricsOf(defs []MetricDef, vals map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.Name] = Metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// ContractLine is the last line of stdout the driver reads.
type ContractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Environment stamps where a result came from.
type Environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpuModel"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// ProgramCounts are one program's counts that do not depend on how many
// requests fit in the run.
type ProgramCounts struct {
	Bytecodes uint64 `json:"bytecodes"`
	SimCycles uint64 `json:"simCycles"`
}

// LegResult is one leg (end-to-end or traced) of one workload.
type LegResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Samples is the number of latency samples; TailPct the percentile
	// lat_tail_ms (or the span p99s) could be reported at.
	Samples  int               `json:"samples"`
	TailPct  float64           `json:"tailPct"`
	Outcomes map[string]int    `json:"outcomes"`
	Metrics  map[string]Metric `json:"metrics"`
	// Notes carry verdicts a number alone does not: an unresolved
	// open loop, a failed trace invariant.
	Notes []string `json:"notes,omitempty"`
	// PerProgram is set on the traced leg.
	PerProgram map[string]ProgramCounts `json:"perProgram,omitempty"`
}

// WorkloadResult is everything one set measured about one workload.
type WorkloadResult struct {
	Name     string     `json:"name"`
	Why      string     `json:"why"`
	EndToEnd *LegResult `json:"endToEnd,omitempty"`
	PerLayer *LegResult `json:"perLayer,omitempty"`
}

// Result is the one schema every run of the benchmark writes
// (bench/out/result.json): environment, then per workload the end-to-end
// metrics with sample counts and outcome classes, then the per-layer
// metrics. With -repeat N it holds N sets.
type Result struct {
	Environment Environment        `json:"environment"`
	Sets        [][]WorkloadResult `json:"sets"`
}

// writeJSON writes v to dir/name, creating dir.
func writeJSON(dir, name string, v interface{}) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// printLeg writes one leg's metrics by name with unit, in table order.
func printLeg(w io.Writer, title string, defs []MetricDef, leg *LegResult) {
	fmt.Fprintf(w, "%s  correct=%v attempted=%d failed=%d samples=%d tail=p%g\n",
		title, leg.Correct, leg.Attempted, leg.Failed, leg.Samples, leg.TailPct)
	for _, d := range defs {
		m := leg.Metrics[d.Name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	if len(leg.Outcomes) > 1 {
		keys := make([]string, 0, len(leg.Outcomes))
		for k := range leg.Outcomes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  outcome %-24s %d\n", k, leg.Outcomes[k])
		}
	}
	for _, n := range leg.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
