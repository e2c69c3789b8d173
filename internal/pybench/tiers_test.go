package pybench

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/pycode"
	"repro/internal/pycompile"
	"repro/internal/runtime"
)

var tiers = flag.Bool("tiers", false, "print the host wall-clock tier table (EXPERIMENTS.md, \"Wall-clock tiers\")")

// dispatchSrc is the attribute/global-heavy loop the dispatch-quickened
// gate times (internal/interp's dispatchBenchSrc), so the table shows the
// gated microbench beside the suite it is supposed to stand for.
const dispatchSrc = `
STEP = 3
class Acc:
    def __init__(self):
        self.total = 0
    def bump(self, v):
        self.total = self.total + v
def run(n):
    a = Acc()
    i = 0
    while i < n:
        a.bump(STEP)
        a.total = a.total + STEP
        i = i + 1
    return a.total
print(run(20000))
`

// tierLegs are the execution tiers compared, all with emission unarmed
// (ServingConfig): what a served request pays.
var tierLegs = []struct {
	name               string
	mode               runtime.Mode
	noQuicken, noTier2 bool
}{
	{name: "cold", mode: runtime.CPython, noQuicken: true},
	{name: "tier1", mode: runtime.CPython, noTier2: true},
	{name: "tier2", mode: runtime.CPython},
	{name: "pypy-jit", mode: runtime.PyPyJIT},
}

// bestOf times code on a pristine state (the restore off the clock,
// as on a warm pool worker) and returns the fastest of n runs
// with the run's output.
func bestOf(t *testing.T, cfg runtime.Config, code *pycode.Code, n int) (time.Duration, string) {
	t.Helper()
	r, err := runtime.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, out := time.Duration(math.MaxInt64), ""
	for i := 0; i < n; i++ {
		r.Reset()
		start := time.Now()
		res, err := r.RunCode(code)
		d := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", code.Name, err)
		}
		if d < best {
			best = d
		}
		out = res.Output
	}
	return best, out
}

// TestWallClockTiers prints, per benchmark, best-of-3 host wall-clock of
// the cold interpreter and its speedup under tier-1, tier-2 and pypy-jit,
// then the distribution of each speedup over the suite. It is the data
// behind the dispatch-quickened gate value; run it with
//
//	go test ./internal/pybench -run TestWallClockTiers -tiers -v
func TestWallClockTiers(t *testing.T) {
	if !*tiers {
		t.Skip("measurement, not a check: pass -tiers")
	}
	type prog struct {
		name string
		code *pycode.Code
	}
	dispatch, err := pycompile.CompileSource("dispatch", dispatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	progs := []prog{{"dispatch (gate)", dispatch}}
	for _, b := range All() {
		progs = append(progs, prog{b.Name, b.Compiled()})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-20s %9s %7s %7s %9s\n", "benchmark", "cold ms", "tier1", "tier2", "pypy-jit")
	speedups := make([][]float64, len(tierLegs))
	for _, p := range progs {
		var ms [4]float64
		want := ""
		for i, leg := range tierLegs {
			cfg := runtime.ServingConfig(leg.mode)
			cfg.NoQuicken, cfg.NoTier2 = leg.noQuicken, leg.noTier2
			d, out := bestOf(t, cfg, p.code, 3)
			if i == 0 {
				want = out
			} else if out != want {
				t.Fatalf("%s: %s output differs from cold", p.name, leg.name)
			}
			ms[i] = float64(d) / 1e6
		}
		fmt.Fprintf(&sb, "%-20s %9.1f %6.2fx %6.2fx %8.2fx\n", p.name, ms[0], ms[0]/ms[1], ms[0]/ms[2], ms[0]/ms[3])
		if p.code != dispatch {
			for i := 1; i < len(tierLegs); i++ {
				speedups[i] = append(speedups[i], ms[0]/ms[i])
			}
		}
	}
	fmt.Fprintf(&sb, "\nover the %d suite programs (dispatch excluded):\n", len(progs)-1)
	fmt.Fprintf(&sb, "%-10s %8s %8s %8s %8s %8s\n", "vs cold", "min", "p25", "geomean", "p75", "max")
	for i := 1; i < len(tierLegs); i++ {
		s := speedups[i]
		sort.Float64s(s)
		logSum := 0.0
		for _, v := range s {
			logSum += math.Log(v)
		}
		fmt.Fprintf(&sb, "%-10s %7.2fx %7.2fx %7.2fx %7.2fx %7.2fx\n", tierLegs[i].name,
			s[0], s[len(s)/4], math.Exp(logSum/float64(len(s))), s[len(s)*3/4], s[len(s)-1])
	}
	t.Log("\n" + sb.String())
}
