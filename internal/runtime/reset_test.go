package runtime

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/interp"
)

// resetProgram exercises allocation, GC traffic, arithmetic, and (for JIT
// modes) a hot loop, so any state bleeding between runs shows up in the
// output or the statistics.
const resetProgram = `
keep = []
acc = 0
for i in xrange(3000):
    acc = acc + i * 3 & 1023
    t = [i, i + 1]
    if i % 700 == 0:
        keep.append(t)
print(acc)
print(len(keep))
`

// runFresh executes the program on a brand-new Runner.
func runFresh(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run("reset.py", resetProgram)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult compares everything deterministic about two results.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Output != got.Output {
		t.Errorf("%s: output %q != %q", label, got.Output, want.Output)
	}
	if !reflect.DeepEqual(want.VM, got.VM) {
		t.Errorf("%s: VM stats %+v != %+v", label, got.VM, want.VM)
	}
	if !reflect.DeepEqual(want.GC, got.GC) {
		t.Errorf("%s: GC stats %+v != %+v", label, got.GC, want.GC)
	}
	if !reflect.DeepEqual(want.Heap, got.Heap) {
		t.Errorf("%s: heap stats %+v != %+v", label, got.Heap, want.Heap)
	}
	if (want.JIT == nil) != (got.JIT == nil) {
		t.Fatalf("%s: JIT stats presence mismatch", label)
	}
	if want.JIT != nil && !reflect.DeepEqual(*want.JIT, *got.JIT) {
		t.Errorf("%s: JIT stats %+v != %+v", label, *got.JIT, *want.JIT)
	}
}

// TestResetMatchesFreshRunners: two sequential runs on one Runner — with
// and without an explicit Reset between them — produce byte- and
// stat-identical results to two fresh Runners, for every mode. This is
// the warm worker pool's reuse contract: no observable state crosses
// from one job to the next.
func TestResetMatchesFreshRunners(t *testing.T) {
	for m := Mode(0); m < NumModes; m++ {
		t.Run(m.String(), func(t *testing.T) {
			cfg := DefaultConfig(m)
			cfg.Core = CountOnly
			cfg.Warmups = 0
			cfg.Measures = 1
			cfg.NurseryBytes = 64 << 10 // force collections
			cfg.Stdout = io.Discard

			first := runFresh(t, cfg)
			second := runFresh(t, cfg)
			sameResult(t, "fresh-vs-fresh", first, second)

			warm, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := warm.Run("reset.py", resetProgram)
			if err != nil {
				t.Fatal(err)
			}
			warm.Reset() // restore pristine state off the critical path
			b, err := warm.Run("reset.py", resetProgram)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "warm run 1", first, a)
			sameResult(t, "warm run 2 (after Reset)", first, b)

			// Without Reset the runner still builds pristine state.
			c, err := warm.Run("reset.py", resetProgram)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "warm run 3 (no Reset)", first, c)

			// A run aborted on its step budget leaves frames, interned
			// strings and half-built objects behind; after Reset the
			// Runner prints a fresh Runner's addresses.
			fresh, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run("addr.py", addrProgram)
			if err != nil {
				t.Fatal(err)
			}
			warm.SetLimits(interp.Limits{MaxSteps: 20_000})
			if _, err := warm.Run("reset.py", resetProgram); err == nil {
				t.Fatal("step budget did not abort the run")
			}
			warm.SetLimits(interp.Limits{})
			warm.Reset()
			d, err := warm.Run("addr.py", addrProgram)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "addresses after an aborted run and Reset", want, d)
		})
	}
}

// addrProgram prints simulated addresses — id() of a heap object, of an
// interned constant and of an instance — and an instance's default
// repr, so a restored VM must reissue exactly a fresh VM's addresses.
const addrProgram = `
class Box:
    pass
b = Box()
xs = [1, 2, 3]
print(id(xs))
print(id("interned-name"))
print(id(b))
print(b)
`

// servedPrograms returns the benchmark's served sources: one instance of
// each handler template and the pinned kernels.
func servedPrograms(t *testing.T) map[string]string {
	t.Helper()
	progs := map[string]string{}
	for _, glob := range []string{"handlers/*_1.py", "kernels/*.py"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "bench", "corpus", glob))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no bench corpus files match %s (%v)", glob, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			progs[p] = string(src)
		}
	}
	if len(progs) != 20 {
		t.Fatalf("found %d served programs, want 8 handlers + 12 kernels", len(progs))
	}
	return progs
}

// TestResetAllocs is the deterministic gate on restoring a Runner: a
// Reset after each served program makes at most 64 Go allocations and
// 8 KB (building a VM took ~650 allocations and ~70 KB), in the serving
// configurations of both heaps. Measured with the Go collector off so
// the counts are exact.
func TestResetAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 40 served programs")
	}
	const maxAllocs, maxBytes = 64, 8 << 10
	progs := servedPrograms(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var warm goruntime.MemStats
	goruntime.ReadMemStats(&warm) // the first call allocates for itself
	for _, m := range []Mode{CPython, PyPyJIT} {
		r, err := NewRunner(ServingConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range progs {
			if _, err := r.Run(name, src); err != nil {
				t.Fatalf("%s on %s: %v", name, m, err)
			}
			var before, after goruntime.MemStats
			goruntime.ReadMemStats(&before)
			r.Reset()
			goruntime.ReadMemStats(&after)
			allocs := after.Mallocs - before.Mallocs
			bytes := after.TotalAlloc - before.TotalAlloc
			if allocs > maxAllocs || bytes > maxBytes {
				t.Errorf("%s: Reset after %s made %d allocations, %d bytes (gate %d, %d)",
					m, filepath.Base(name), allocs, bytes, maxAllocs, maxBytes)
			}
		}
	}
}

// TestSetLimitsAppliesToWarmState: limits installed after Reset still
// govern the next run (the pool arms per-job budgets on warm workers).
func TestSetLimitsAppliesToWarmState(t *testing.T) {
	cfg := DefaultConfig(CPython)
	cfg.Core = CountOnly
	cfg.Warmups = 0
	cfg.Measures = 1
	cfg.Stdout = io.Discard
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Reset() // warm state built with unlimited budgets
	r.SetLimits(interp.Limits{MaxSteps: 1000})
	_, err = r.Run("hot.py", "i = 0\nwhile True:\n    i = i + 1\n")
	if err == nil {
		t.Fatal("step budget armed after Reset did not fire")
	}
}

// TestSetFaultsAppliesToWarmState: a fault injector installed after
// Reset still arms the next run, on the heap and in the JIT, without
// rebuilding the restored state.
func TestSetFaultsAppliesToWarmState(t *testing.T) {
	cfg := ServingConfig(PyPyJIT)
	cfg.Stdout = io.Discard
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Reset() // warm state built with no injector
	vm := r.st.vm
	inj := faults.NewEveryNth(faults.AllocFail, 1)
	r.SetFaults(inj)
	_, err = r.Run("alloc.py", "xs = []\nfor i in xrange(100):\n    xs.append([i])\n")
	if err == nil || !strings.Contains(err.Error(), "MemoryError") {
		t.Fatalf("alloc fault armed after Reset did not fire: %v", err)
	}
	if inj.TotalFired() == 0 {
		t.Fatal("injector recorded no fired fault")
	}
	if r.st.vm != vm {
		t.Fatal("arming an injector rebuilt the VM")
	}
	// The JIT built for the next run carries the injector too: every
	// trace compile fails, and the loop still runs to its answer.
	r.Reset()
	r.SetFaults(faults.NewEveryNth(faults.TraceCompileFail, 1))
	res, err := r.Run("hot.py", loopProgram)
	if err != nil || res.JIT == nil || res.JIT.InjectedFaults == 0 {
		t.Fatalf("compile fault armed after Reset did not fire: %v %+v", err, res)
	}
	r.SetFaults(nil)
	if _, err := r.Run("alloc.py", "xs = [1]\nprint(len(xs))\n"); err != nil {
		t.Fatalf("run after disarming faults: %v", err)
	}
}
