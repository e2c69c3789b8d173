package faults

import (
	"sync"
	"testing"
)

// Same seed, same call sequence -> identical firing schedule.
func TestDeterminism(t *testing.T) {
	run := func() []bool {
		in := NewRate(42, 7, AllocFail, GuardCorrupt)
		var fires []bool
		for i := 0; i < 500; i++ {
			k := AllocFail
			if i%3 == 0 {
				k = GuardCorrupt
			}
			fires = append(fires, in.Should(k))
		}
		return fires
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at call %d", i)
		}
	}
}

func TestEveryNth(t *testing.T) {
	in := NewEveryNth(AllocFail, 10)
	for i := 1; i <= 100; i++ {
		fired := in.Should(AllocFail)
		if fired != (i%10 == 0) {
			t.Fatalf("visit %d: fired=%v", i, fired)
		}
	}
	if in.Sites[AllocFail] != 100 || in.Fired[AllocFail] != 10 {
		t.Errorf("counts: sites=%d fired=%d", in.Sites[AllocFail], in.Fired[AllocFail])
	}
	// Other kinds never fire.
	if in.Should(GuardCorrupt) {
		t.Error("unconfigured kind fired")
	}
}

func TestRateApproximate(t *testing.T) {
	in := NewRate(1, 100, NurseryExhaust)
	const visits = 100000
	for i := 0; i < visits; i++ {
		in.Should(NurseryExhaust)
	}
	fired := in.Fired[NurseryExhaust]
	// 1/100 over 100k visits: expect ~1000; allow a wide deterministic
	// band since the PRNG stream is fixed.
	if fired < 600 || fired > 1400 {
		t.Errorf("rate 1/100 fired %d/%d times", fired, visits)
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.Should(AllocFail) || in.TotalFired() != 0 {
		t.Error("nil injector fired")
	}
	if in.String() != "faults: disabled" {
		t.Errorf("nil String: %q", in.String())
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := NewRate(1, 3, AllocFail), NewRate(2, 3, AllocFail)
	same := true
	for i := 0; i < 200; i++ {
		if a.Should(AllocFail) != b.Should(AllocFail) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestString(t *testing.T) {
	in := NewEveryNth(TraceCompileFail, 2)
	in.Should(TraceCompileFail)
	in.Should(TraceCompileFail)
	if got := in.String(); got != "faults: trace-compile-fail 1/2" {
		t.Errorf("String = %q", got)
	}
	if New(Config{}).String() != "faults: no sites visited" {
		t.Error("empty injector String wrong")
	}
}

// Injectors are per-VM; parallel VMs each with their own injector must not
// interfere (exercised under -race in CI).
func TestParallelInjectorsIndependent(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]uint64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := NewRate(99, 5, AllocFail)
			for i := 0; i < 10000; i++ {
				in.Should(AllocFail)
			}
			results[g] = in.Fired[AllocFail]
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d fired %d, goroutine 0 fired %d", g, results[g], results[0])
		}
	}
}

// Every kind has a distinct, non-placeholder name (guards the kindNames
// table against drifting out of sync with the Kind enum).
func TestKindNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		n := k.String()
		if n == "" || seen[n] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, n)
		}
		seen[n] = true
	}
	if Kind(NumKinds).String() == kindNames[0] {
		t.Error("out-of-range kind must not alias a real name")
	}
}

// The supervision fault kinds obey the same disciplines as the VM kinds.
func TestSupervisionKindsFire(t *testing.T) {
	in := NewEveryNth(WorkerWedge, 3)
	fired := 0
	for i := 0; i < 9; i++ {
		if in.Should(WorkerWedge) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("worker-wedge every-3rd over 9 visits: fired %d", fired)
	}
	in2 := NewRate(7, 2, WorkerWedge)
	any := false
	for i := 0; i < 64; i++ {
		if in2.Should(WorkerWedge) {
			any = true
		}
	}
	if !any {
		t.Error("worker-wedge at rate 1/2 never fired in 64 visits")
	}
}
