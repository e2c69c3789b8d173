package interp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/benchgate"
	"repro/internal/emit"
	"repro/internal/gc"
	"repro/internal/isa"
	"repro/internal/pycompile"
)

// dispatchBenchSrc is the attribute/global-heavy dispatch workload the
// quickening speedup is measured on: every loop iteration does global
// reads, a method call, and attribute loads and stores.
const dispatchBenchSrc = `
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

const dispatchBenchWant = "120000\n"

// timeDispatch runs the bench program once on a fresh VM and returns the
// wall-clock of the RunCode call alone (compile excluded; the code
// object is shared).
func timeDispatch(t *testing.T, quicken bool) time.Duration {
	t.Helper()
	code, err := pycompile.CompileSource("dispatch.py", dispatchBenchSrc)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
	vm.SetQuicken(quicken)
	start := time.Now()
	if err := vm.RunCode(code); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	if out.String() != dispatchBenchWant {
		t.Fatalf("quicken=%v output %q, want %q", quicken, out.String(), dispatchBenchWant)
	}
	if quicken {
		if rate := vm.Stats.IC.HitRate(); rate < 0.9 {
			t.Fatalf("IC hit rate %.3f on monomorphic bench, want >= 0.9 (%+v)", rate, vm.Stats.IC)
		}
	}
	return d
}

// TestQuickenedDispatchGuard is the performance regression gate: on the
// attribute/global-heavy dispatch benchmark the tier-2 quickened
// interpreter must beat the cold one in host wall-clock, emission
// unarmed, by the factor the shared benchgate table demands (polymorphic
// stubs, superinstruction fusion and the unboxed-int fast paths
// together; EXPERIMENTS.md "Wall-clock tiers" has the data the factor is
// set from). Best-of-N timing with retries keeps scheduler noise from
// flaking the gate.
func TestQuickenedDispatchGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	const (
		reps     = 5
		attempts = 3
	)
	requiredGain := benchgate.Lookup("dispatch-quickened").MinSpeedup
	best := 0.0
	for attempt := 1; attempt <= attempts; attempt++ {
		cold, quick := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < reps; i++ {
			if d := timeDispatch(t, false); d < cold {
				cold = d
			}
			if d := timeDispatch(t, true); d < quick {
				quick = d
			}
		}
		speedup := float64(cold) / float64(quick)
		if speedup > best {
			best = speedup
		}
		t.Logf("attempt %d: cold %v, quickened %v, speedup %.2fx", attempt, cold, quick, speedup)
		if best >= requiredGain {
			return
		}
	}
	t.Fatalf("quickened interpreter speedup %.2fx, want >= %.2fx on dispatch-heavy bench", best, requiredGain)
}

func benchmarkDispatch(b *testing.B, quicken bool) {
	code, err := pycompile.CompileSource("dispatch.py", dispatchBenchSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out strings.Builder
		vm := New(emit.NewEngine(isa.NullSink{}), gc.DefaultRefCountConfig(), &out)
		vm.SetQuicken(quicken)
		if err := vm.RunCode(code); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDispatchCold(b *testing.B)      { benchmarkDispatch(b, false) }
func BenchmarkDispatchQuickened(b *testing.B) { benchmarkDispatch(b, true) }
