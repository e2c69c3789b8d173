package progstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/pycode"
	"repro/internal/pycompile"
	"repro/internal/telemetry"
)

const testSrc = "x = 1\nprint(x + 41)\n"

func TestRefShape(t *testing.T) {
	ref := Ref(testSrc)
	if len(ref) != RefLen {
		t.Fatalf("ref length %d, want %d", len(ref), RefLen)
	}
	if !ValidRef(ref) {
		t.Fatalf("Ref produced an invalid ref %q", ref)
	}
	if Ref(testSrc) != ref {
		t.Fatal("Ref is not deterministic")
	}
	if Ref(testSrc+" ") == ref {
		t.Fatal("distinct sources collide")
	}
	for _, bad := range []string{"", "zz", ref[:RefLen-1], ref[:RefLen-1] + "G"} {
		if ValidRef(bad) {
			t.Errorf("ValidRef(%q) = true", bad)
		}
	}
}

// TestRegisterSingleFlight is the issue's -race leg: 32 concurrent
// registrations of the same source must run the compiler exactly once
// and hand every caller the same *pycode.Code identity.
func TestRegisterSingleFlight(t *testing.T) {
	const callers = 32
	var compiles atomic.Int64
	release := make(chan struct{})
	s := New(Options{Compile: func(name, src string) (*pycode.Code, error) {
		compiles.Add(1)
		<-release // hold the compile open so the other 31 arrive while pending
		return pycompile.CompileSource(name, src)
	}})
	s.Instrument(telemetry.NewRegistry())

	codes := make([]*pycode.Code, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := s.Register("single.py", testSrc)
			if err != nil {
				errs[i] = err
				return
			}
			codes[i] = p.Code
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters pile up behind the compile
	close(release)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if codes[i] == nil {
			t.Fatalf("caller %d: nil code", i)
		}
		if codes[i] != codes[0] {
			t.Fatalf("caller %d got a distinct *pycode.Code: single-flight broken", i)
		}
	}
	if got := compiles.Load(); got != 1 {
		t.Fatalf("compiler ran %d times, want exactly 1", got)
	}
	st := s.StatsSnapshot()
	if st.Waits == 0 {
		t.Error("no single-flight waits recorded despite 31 blocked callers")
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

func TestLookupAndSeed(t *testing.T) {
	s := New(Options{})
	p, hit, err := s.Register("a.py", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first registration reported a hit")
	}
	if _, hit, _ := s.Register("a.py", testSrc); !hit {
		t.Fatal("re-registration did not report a hit")
	}
	got, ok := s.Lookup(p.Ref)
	if !ok || got.Code != p.Code {
		t.Fatalf("Lookup(%q) = %v, %v; want original code", p.Ref, got, ok)
	}
	if _, ok := s.Lookup(Ref("unknown-program")); ok {
		t.Fatal("Lookup of unregistered ref succeeded")
	}

	seed := &interp.ICSeed{Units: map[string]interp.SeedUnit{"": {Sites: []interp.SeedSite{{PC: 1}}}}}
	s.OfferSeed(p.Ref, seed)
	got, _ = s.Lookup(p.Ref)
	if got.Seed != seed {
		t.Fatal("OfferSeed did not attach the seed")
	}
	// First seed wins.
	other := &interp.ICSeed{Units: map[string]interp.SeedUnit{}}
	s.OfferSeed(p.Ref, other)
	got, _ = s.Lookup(p.Ref)
	if got.Seed != seed {
		t.Fatal("a second OfferSeed replaced the first")
	}

	info, ok := s.InfoFor(p.Ref)
	if !ok || !info.Compiled || !info.ICSeed || info.ICSeedSites != 1 || info.SrcBytes != len(testSrc) {
		t.Fatalf("InfoFor = %+v, %v", info, ok)
	}

	if !s.Delete(p.Ref) {
		t.Fatal("Delete of a stored ref reported absent")
	}
	if _, ok := s.Lookup(p.Ref); ok {
		t.Fatal("Lookup succeeded after Delete")
	}
	if s.Delete(p.Ref) {
		t.Fatal("second Delete reported present")
	}
}

func TestFailedCompileNotCached(t *testing.T) {
	var compiles int
	boom := errors.New("syntax error")
	s := New(Options{Compile: func(name, src string) (*pycode.Code, error) {
		compiles++
		return nil, boom
	}})
	if _, _, err := s.Register("bad.py", "def"); !errors.Is(err, boom) {
		t.Fatalf("Register error = %v, want %v", err, boom)
	}
	if _, _, err := s.Register("bad.py", "def"); !errors.Is(err, boom) {
		t.Fatalf("second Register error = %v, want %v", err, boom)
	}
	if compiles != 2 {
		t.Fatalf("failed compile was cached (compiles = %d, want 2)", compiles)
	}
	if st := s.StatsSnapshot(); st.Entries != 0 {
		t.Fatalf("failed compile left %d entries", st.Entries)
	}
}

func TestTTLExpiryAndCapacityEviction(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	s := New(Options{TTL: time.Minute, Cap: 2, Now: now})

	p1, _, err := s.Register("p1.py", "print(1)\n")
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Second)
	p2, _, err := s.Register("p2.py", "print(2)\n")
	if err != nil {
		t.Fatal(err)
	}

	// Third registration at capacity evicts the oldest (p1).
	if _, _, err := s.Register("p3.py", "print(3)\n"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(p1.Ref); ok {
		t.Fatal("oldest entry survived a capacity eviction")
	}
	if _, ok := s.Lookup(p2.Ref); !ok {
		t.Fatal("newer entry was evicted out of order")
	}
	st := s.StatsSnapshot()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}

	// TTL expiry sweeps everything once the window passes.
	clock = clock.Add(2 * time.Minute)
	if _, ok := s.Lookup(p2.Ref); ok {
		t.Fatal("entry survived past its TTL")
	}
	if st := s.StatsSnapshot(); st.Expirations == 0 {
		t.Fatal("no expirations recorded after the TTL elapsed")
	}
}

// TestHotRefNeverExpires: the TTL counts from a program's last use, so a
// ref looked up every minute stays resolvable long past DefaultTTL from
// its registration.
func TestHotRefNeverExpires(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	s := New(Options{Now: func() time.Time { return clock }})
	p, _, err := s.Register("hot.py", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	for min := 1; min <= 40; min++ {
		clock = clock.Add(time.Minute)
		if _, ok := s.Lookup(p.Ref); !ok {
			t.Fatalf("ref looked up every minute expired %d min after registration", min)
		}
	}
}
