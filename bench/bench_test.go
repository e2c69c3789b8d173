package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs every workload for a fraction of a second, both legs, so
// tier-1 `go test ./...` keeps the benchmark compiling and correct:
// every answer verified, the trace's parts summing to the whole, and the
// layer that only one workload exercises showing up only there.
func TestSmoke(t *testing.T) {
	c, err := LoadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	const seed, dur = 7, 300 * time.Millisecond
	for _, w := range workloads {
		w := *w // shrink the warm-up, not the workload
		w.WarmupPerConn = 8
		if w.OpenLoopGap > 0 {
			w.WarmupPerConn = 1
		}
		t.Run(w.Name, func(t *testing.T) {
			top, err := w.setUp(c, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			ph := w.drive(newDriver(top, "m"), c, seed, phaseMeasure, 0, dur)
			top.Close()
			su := w.summarize(ph)
			leg := w.legBase(ph, su)
			if !leg.Correct {
				t.Fatalf("end-to-end leg: %d of %d failed: %v", leg.Failed, leg.Attempted, leg.Outcomes)
			}
			if su.rps <= 0 || su.mbcPerS <= 0 || su.p50 <= 0 || su.tail < su.p50 {
				t.Errorf("summary %+v: rates and latencies must be positive, the tail at least the median", su)
			}

			tr := newTrace()
			if top, err = w.setUp(c, seed, tr); err != nil {
				t.Fatal(err)
			}
			before := top.Counters()
			ph = w.drive(newTracedDriver(top, tr, 2), c, seed, phaseMeasure, 0, dur)
			after := top.Counters()
			top.Close()
			leg = w.legBase(ph, w.summarize(ph))
			if !leg.Correct {
				t.Fatalf("traced leg: %d of %d failed: %v", leg.Failed, leg.Attempted, leg.Outcomes)
			}
			vals := map[string]float64{}
			spanMetrics(&w, tr.snapshot(), leg.TailPct, vals)
			tallyMetrics(&w, ph, leg, before, after, vals)
			if vals["trace.requests"] == 0 {
				t.Fatal("no request was traced")
			}
			if u := vals["trace.unattributed_pct"]; u > 5 {
				t.Errorf("trace.unattributed_pct = %.2f, the parts must sum to the whole within 5%%", u)
			}
			if vals["runtime.run_us.p50"] <= 0 || vals["serve.self_us.p50"] <= 0 || vals["client.self_us.p50"] <= 0 {
				t.Errorf("a layer every request crosses has no self time: %v", vals)
			}
			routed := w.Topology == topoRouted
			if got := vals["route.self_us.p50"] > 0; got != routed {
				t.Errorf("route.self_us.p50 = %g on topology %s", vals["route.self_us.p50"], w.Topology)
			}
			if got := vals["serve.dedup_hits"] > 0; got != routed {
				t.Errorf("serve.dedup_hits = %g on topology %s", vals["serve.dedup_hits"], w.Topology)
			}
			if w.Name == "unique-inline" && vals["progstore.misses_per_req"] != 1 {
				t.Errorf("unique-inline: progstore.misses_per_req = %g, every source is new", vals["progstore.misses_per_req"])
			}
			if w.OpenLoopGap > 0 && vals["bg_rps"] <= 0 {
				t.Errorf("%s: no background job completed", w.Name)
			}
			if w.Name == "handlers-direct" {
				counts, err := runProbes(w.probeSet(c, seed, ph), vals)
				if err != nil {
					t.Fatal(err)
				}
				if len(counts) != len(c.Handlers) {
					t.Errorf("probed %d programs, want %d", len(counts), len(c.Handlers))
				}
				for _, name := range []string{"api.decode_us", "progstore.lookup_ns", "pycompile.us_per_kb",
					"runtime.reset_us", "interp.mbc_per_s.unarmed", "interp.mbc_per_s.pypy-jit", "uarch.minstr_per_s"} {
					if vals[name] <= 0 {
						t.Errorf("probe %s = %g", name, vals[name])
					}
				}
				if r := vals["emit.armed_over_unarmed"]; r <= 1 {
					t.Errorf("emit.armed_over_unarmed = %g: armed emission cannot be cheaper than unarmed", r)
				}
			}
		})
	}
}

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricJSON   `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package:
// the same workloads with their reasons, the same metrics with unit,
// direction and bound. With -update it rewrites the file from them.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, workloadJSON{w.Name, w.Why})
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEnd {
		bound := d.Bound
		want.EndToEnd = append(want.EndToEnd, metricJSON{d.Name, d.Unit, d.Better, &bound})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g, the contract allows (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, metricJSON{d.Name, d.Unit, d.Better, nil})
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricJSON(nil), want.EndToEnd...), want.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v: duplicate, or outside the contract's limits", m)
		}
		seen[m.Name] = true
	}
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of step with the tables in result.go and workloads.go; " +
			"run go test ./bench -run TestBenchmarkJSON -update")
	}
}

// The open-loop schedule is the seed's and nothing else's, offers exactly
// the stated rate, never runs backwards, and bunches as Poisson arrivals do.
func TestPoissonSchedule(t *testing.T) {
	gap, dur := 20*time.Millisecond, 10*time.Second
	a := poissonSchedule(connRand(3, phaseMeasure, benchClients), gap, dur)
	b := poissonSchedule(connRand(3, phaseMeasure, benchClients), gap, dur)
	c := poissonSchedule(connRand(4, phaseMeasure, benchClients), gap, dur)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same schedule")
	}
	if len(a) != int(dur/gap) {
		t.Fatalf("%d arrivals, want %d", len(a), int(dur/gap))
	}
	short := 0
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= int64(dur) {
			t.Fatalf("arrival %d is due at %d after %d (run length %d)", i, a[i], a[i-1], int64(dur))
		}
		if a[i]-a[i-1] < int64(gap)/4 {
			short++
		}
	}
	// About 1 − e^(−1/4) ≈ 22% of Poisson gaps are under a quarter of the
	// mean; an evenly spaced schedule would have none.
	if share := float64(short) / float64(len(a)-1); share < 0.15 || share > 0.30 {
		t.Errorf("%.0f%% of gaps are under a quarter of the mean, want about 22%%", share*100)
	}
}
