package runtime

import (
	"testing"
	"time"

	"repro/internal/benchgate"
	"repro/internal/interp"
	"repro/internal/isa"
	"repro/internal/pycompile"
)

// servingJobSrc and servingJobLimits are the root package's
// BenchmarkSupervisedThroughput job: a hot loop under a fully armed
// governor that is far from tripping.
const servingJobSrc = `
acc = 0
for i in xrange(20000):
    acc += i * 3 & 1023
print(acc)
`

var servingJobLimits = interp.Limits{
	MaxSteps:          1 << 40,
	MaxHeapBytes:      1 << 40,
	MaxRecursionDepth: 100000,
	Deadline:          time.Hour,
	MaxOutputBytes:    1 << 30,
}

// TestServingUnarmedGuard is the regression gate on pay-for-what-you-arm
// emission: the same job on the same ServingConfig Runner must run faster
// with no sink armed than with the cheapest observing sink there is (a
// CountSink — six counter bumps per event, no simulation) by the factor
// the shared benchgate table demands. If an emit site starts building
// events for nobody again, the two legs converge and this fails long
// before a throughput dashboard would show it.
func TestServingUnarmedGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	gate := benchgate.Lookup("serving-unarmed")
	code, err := pycompile.CompileSource("bench", servingJobSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServingConfig(CPython)
	cfg.Limits = servingJobLimits
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// timeRun executes the job once on a pristine state (the restore
	// off the clock, as on a warm pool worker), armed or not.
	timeRun := func(armed bool) time.Duration {
		t.Helper()
		r.Reset()
		var counts isa.CountSink
		if armed {
			r.st.eng.SetSink(&counts)
		}
		start := time.Now()
		res, err := r.RunCode(code)
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != "10187984\n" {
			t.Fatalf("armed=%v output %q", armed, res.Output)
		}
		if armed == (counts.Total == 0) {
			t.Fatalf("armed=%v but the sink saw %d events", armed, counts.Total)
		}
		return d
	}
	const (
		reps     = 5
		attempts = 3
	)
	best := 0.0
	for attempt := 1; attempt <= attempts; attempt++ {
		armed, unarmed := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < reps; i++ {
			if d := timeRun(true); d < armed {
				armed = d
			}
			if d := timeRun(false); d < unarmed {
				unarmed = d
			}
		}
		ratio := float64(armed) / float64(unarmed)
		if ratio > best {
			best = ratio
		}
		t.Logf("attempt %d: count-sink armed %v, unarmed %v, ratio %.2fx", attempt, armed, unarmed, ratio)
		if best >= gate.MinSpeedup {
			return
		}
	}
	t.Fatalf("unarmed run only %.2fx faster than a count-sink run, want >= %.2fx: the unarmed path is paying for events", best, gate.MinSpeedup)
}
