package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
)

// Direct probes call a layer's public function on the workload's own
// inputs, off the request path, so a layer that is fast in isolation and
// slow in the round trip (or the reverse) shows as a disagreement between
// its probe and its span.

// probeSet is what a workload's traffic is made of: its programs, one
// request body per program as the client sends it, and one captured
// response.
type probeSet struct {
	progs    []*Program
	bodies   [][]byte
	response api.RunResultV1
}

// timeIt runs f n times and returns the median duration of one call.
func timeIt(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(sortedCopy(ds)))
}

// runProbes measures every direct-probe metric on ps, and the
// per-program counts.
func runProbes(ps *probeSet, vals map[string]float64) (map[string]ProgramCounts, error) {
	// api: digest, decode, encode — what serve does to every request.
	var bodyBytes int
	for _, b := range ps.bodies {
		bodyBytes += len(b)
	}
	const apiReps = 200
	d := timeIt(apiReps, func() {
		for _, b := range ps.bodies {
			api.Digest(b)
		}
	})
	vals["api.digest_us_per_kb"] = us(d) / (float64(bodyBytes) / 1024)
	d = timeIt(apiReps, func() {
		for _, b := range ps.bodies {
			var req api.RunRequestV1
			_ = json.Unmarshal(b, &req) // the client built these bodies
		}
	})
	vals["api.decode_us"] = us(d) / float64(len(ps.bodies))
	var buf bytes.Buffer
	d = timeIt(apiReps, func() {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(&ps.response) // a decoded response re-encodes
	})
	vals["api.encode_us"] = us(d)

	// pycompile and progstore: a miss compiles, a hit is a map lookup.
	var srcBytes int
	for _, p := range ps.progs {
		srcBytes += len(p.Src)
	}
	var compileErr error
	d = timeIt(5, func() {
		for _, p := range ps.progs {
			if _, err := Compile(p.Name, p.Src); err != nil {
				compileErr = err
			}
		}
	})
	if compileErr != nil {
		return nil, fmt.Errorf("probe compile: %w", compileErr)
	}
	vals["pycompile.us_per_kb"] = us(d) / (float64(srcBytes) / 1024)

	store := NewProgStore()
	refs := make([]string, len(ps.progs))
	for i, p := range ps.progs {
		ref, _, err := store.Register(p.Name, p.Src)
		if err != nil {
			return nil, fmt.Errorf("probe register: %w", err)
		}
		refs[i] = ref
	}
	d = timeIt(apiReps, func() {
		for _, ref := range refs {
			store.Lookup(ref)
		}
	})
	vals["progstore.lookup_ns"] = float64(d) / float64(len(refs))
	// Never-seen sources: the program plus a comment no other call used.
	miss := 0
	d = timeIt(5, func() {
		for _, p := range ps.progs {
			miss++
			_, _, _ = store.Register(p.Name, fmt.Sprintf("%s\n# probe %d\n", p.Src, miss))
		}
	})
	vals["progstore.register_miss_us"] = us(d) / float64(len(ps.progs))

	// runtime + interp: the program set under each runner configuration.
	codes := make([]*codeOf, len(ps.progs))
	for i, p := range ps.progs {
		code, err := Compile(p.Name, p.Src)
		if err != nil {
			return nil, fmt.Errorf("probe compile: %w", err)
		}
		codes[i] = &codeOf{p, code}
	}
	counts := map[string]ProgramCounts{}
	secs := map[string][]float64{} // config → per-program best seconds
	for _, cfg := range runnerConfigs {
		r, err := NewProbeRunner(cfg)
		if err != nil {
			return nil, err
		}
		if cfg == cfgUnarmed {
			vals["runtime.reset_us"] = us(timeIt(50, r.Reset))
		}
		var rates []float64
		var simInstrs uint64
		var armedSecs float64
		for _, c := range codes {
			best, st, err := bestRun(r, c)
			if err != nil {
				return nil, fmt.Errorf("probe %s on %s: %w", c.prog.Name, cfg, err)
			}
			secs[cfg] = append(secs[cfg], best)
			rates = append(rates, float64(st.Bytecodes)/1e6/best)
			pc := counts[c.prog.Name]
			switch cfg {
			case cfgUnarmed:
				pc.Bytecodes = st.Bytecodes
			case cfgArmed:
				pc.SimCycles = st.SimCycles
				simInstrs += st.SimInstrs
				armedSecs += best
			}
			counts[c.prog.Name] = pc
		}
		vals["interp.mbc_per_s."+cfg] = geomean(rates)
		if cfg == cfgArmed {
			vals["uarch.minstr_per_s"] = float64(simInstrs) / 1e6 / armedSecs
		}
	}
	ratios := make([]float64, len(codes))
	var bc, cyc uint64
	for i, c := range codes {
		ratios[i] = secs[cfgArmed][i] / secs[cfgUnarmed][i]
		bc += counts[c.prog.Name].Bytecodes
		cyc += counts[c.prog.Name].SimCycles
	}
	vals["emit.armed_over_unarmed"] = geomean(ratios)
	// Means over the program set, each program once: exact repeats.
	vals["interp.bytecodes_per_req"] = float64(bc) / float64(len(codes))
	vals["uarch.sim_cycles_per_req"] = float64(cyc) / float64(len(codes))
	return counts, nil
}

type codeOf struct {
	prog *Program
	code Code
}

// probeReps bounds how often a probe repeats one program: enough for a
// stable best-of on handlers, once on a 0.3 s job.
const (
	probeBudget  = 60 * time.Millisecond
	probeMaxReps = 7
)

// bestRun executes one program on r from pristine state until the
// per-program budget is spent, checks its output and returns the best
// wall time in seconds.
func bestRun(r *ProbeRunner, c *codeOf) (float64, RunStats, error) {
	var best time.Duration
	var st RunStats
	var spent time.Duration
	for rep := 0; rep < probeMaxReps && (rep == 0 || spent < probeBudget); rep++ {
		r.Reset()
		t0 := time.Now()
		s, err := r.Run(c.code)
		el := time.Since(t0)
		if err != nil {
			return 0, st, err
		}
		if s.Stdout != c.prog.Want {
			return 0, st, fmt.Errorf("stdout %q, want %q", s.Stdout, c.prog.Want)
		}
		spent += el
		if rep == 0 || el < best {
			best, st = el, s
		}
	}
	return best.Seconds(), st, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// procSnapshot is the Go process's resource use so far.
type procSnapshot struct {
	cpu     time.Duration
	alloc   uint64
	gcPause time.Duration
	peakRSS float64 // MB
}

func readProc() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSnapshot{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcPause: time.Duration(ms.PauseTotalNs),
		peakRSS: float64(ru.Maxrss) / 1024, // Linux reports KB
	}
}

// procMetrics fills the proc.* metrics from the change between two
// snapshots over reqs requests.
func procMetrics(before, after procSnapshot, reqs int, vals map[string]float64) {
	k := float64(reqs) / 1000
	if k == 0 {
		return
	}
	vals["proc.peak_rss_mb"] = after.peakRSS
	vals["proc.cpu_s_per_kreq"] = (after.cpu - before.cpu).Seconds() / k
	vals["proc.alloc_mb_per_kreq"] = float64(after.alloc-before.alloc) / (1 << 20) / k
	vals["proc.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
}

// environment stamps the run. The commit is known only where the
// benchmark runs inside a git work tree.
func environment(seed int64, seconds int) Environment {
	env := Environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Seed:       seed,
		Seconds:    seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					env.CPUModel = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	return env
}
