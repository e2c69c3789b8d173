package sfcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// clock is a settable test clock, safe to read from cache goroutines.
type clock struct{ ns atomic.Int64 }

func newClock() *clock {
	c := &clock{}
	c.ns.Store(time.Unix(1000, 0).UnixNano())
	return c
}

func (c *clock) now() time.Time      { return time.Unix(0, c.ns.Load()) }
func (c *clock) add(d time.Duration) { c.ns.Add(int64(d)) }

// value is an fn that computes v and keeps it.
func value(v string) func() (string, bool, error) {
	return func() (string, bool, error) { return v, true, nil }
}

// result is what a held fn reports once released.
type result struct {
	v    string
	keep bool
}

// waitFor polls until cond holds: the tests wait on cache state (a
// waiter parked, an entry pending), which has no channel to block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// hold claims key with an fn that blocks until the returned release is
// called with the result to report; it returns once the entry is pending.
func hold(t *testing.T, c *Cache[string, string], key string) (release func(v string, keep bool), done <-chan struct{}) {
	t.Helper()
	ch := make(chan result)
	fin := make(chan struct{})
	before := c.Stats().Misses
	go func() {
		defer close(fin)
		c.Do(context.Background(), key, func() (string, bool, error) {
			r := <-ch
			return r.v, r.keep, nil
		})
	}()
	waitFor(t, "the held entry to be claimed", func() bool { return c.Stats().Misses > before })
	return func(v string, keep bool) { ch <- result{v, keep} }, fin
}

func TestSingleFlight(t *testing.T) {
	c := New[string, string](time.Minute, 8, nil)
	const callers = 32
	var runs atomic.Int64
	release := make(chan struct{})
	vals := make([]string, callers)
	hits := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], hits[i], _ = c.Do(context.Background(), "k", func() (string, bool, error) {
				runs.Add(1)
				<-release
				return "v", true, nil
			})
		}(i)
	}
	waitFor(t, "31 waiters", func() bool { return c.Stats().Waits == callers-1 })
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	nhits := 0
	for i := range vals {
		if vals[i] != "v" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if hits[i] {
			nhits++
		}
	}
	st := c.Stats()
	if nhits != callers-1 || st.Hits != callers-1 || st.Misses != 1 || st.Stored != 1 || st.Entries != 1 {
		t.Fatalf("hits=%d stats=%+v, want %d hits, 1 miss, 1 stored, 1 entry", nhits, st, callers-1)
	}
}

// TestWaitCancel: a waiter whose context ends stops waiting with the
// context's error and never runs fn.
func TestWaitCancel(t *testing.T) {
	c := New[string, string](time.Minute, 8, nil)
	release, done := hold(t, c, "k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, err := c.Do(ctx, "k", func() (string, bool, error) {
		t.Error("cancelled waiter ran fn")
		return "", false, nil
	})
	if hit || !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = hit %v, err %v; want a context.Canceled miss", hit, err)
	}
	release("v", true)
	<-done
	if v, ok := c.Get("k"); !ok || v != "v" {
		t.Fatalf("Get after the holder resolved = %q, %v", v, ok)
	}
}

// TestNotKeptReleasesKey: a result fn does not keep (a shed job, a
// failed compile, a panic) is never stored, and the next caller runs fn
// afresh.
func TestNotKeptReleasesKey(t *testing.T) {
	c := New[string, string](time.Minute, 8, nil)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", func() (string, bool, error) { return "", false, nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do(context.Background(), "k", func() (string, bool, error) { return "x", true, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	func() {
		defer func() { _ = recover() }()
		c.Do(context.Background(), "k", func() (string, bool, error) { panic("fn") })
	}()
	if st := c.Stats(); st.Stored != 0 || st.Entries != 0 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want nothing stored after three unkept results", st)
	}
	if v, hit, _ := c.Do(context.Background(), "k", value("v")); hit || v != "v" {
		t.Fatalf("Do after release = %q, hit %v; want a fresh run", v, hit)
	}
}

// TestReelectionAfterNotKept: when the holder's result is not kept, its
// waiters consult again; exactly one of them runs fn and the rest hit.
func TestReelectionAfterNotKept(t *testing.T) {
	c := New[string, string](time.Minute, 8, nil)
	release, done := hold(t, c, "k")
	const waiters = 8
	var runs atomic.Int64
	var hits atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), "k", func() (string, bool, error) {
				runs.Add(1)
				return "second", true, nil
			})
			if err != nil || v != "second" {
				t.Errorf("waiter got %q, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	waitFor(t, "the waiters to park", func() bool { return c.Stats().Waits == waiters })
	release("shed", false)
	<-done
	wg.Wait()
	if runs.Load() != 1 || hits.Load() != waiters-1 {
		t.Fatalf("runs=%d hits=%d, want 1 re-elected run and %d hits", runs.Load(), hits.Load(), waiters-1)
	}
}

// TestBypassWhenFullOfPending: a full cache whose every entry is pending
// runs fn for a new key without storing it, and evicts nothing.
func TestBypassWhenFullOfPending(t *testing.T) {
	c := New[string, string](time.Minute, 1, nil)
	release, done := hold(t, c, "p")
	for i := 0; i < 2; i++ {
		if v, hit, _ := c.Do(context.Background(), "q", value("q")); hit || v != "q" {
			t.Fatalf("bypass run %d = %q, hit %v", i+1, v, hit)
		}
	}
	if _, ok := c.Get("q"); ok {
		t.Fatal("bypassed result was stored")
	}
	release("p", true)
	<-done
	if st := c.Stats(); st.Evictions != 0 || st.Stored != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the pending entry alone stored", st)
	}
}

// TestLRUEviction: at capacity the least recently used entry goes, and a
// hit counts as a use.
func TestLRUEviction(t *testing.T) {
	c := New[string, string](time.Minute, 2, nil)
	ctx := context.Background()
	c.Do(ctx, "a", value("a"))
	c.Do(ctx, "b", value("b"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Do(ctx, "c", value("c")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived: eviction is not LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a, the most recently used, was evicted")
	}
	if _, hit, _ := c.Do(ctx, "c", value("c2")); !hit {
		t.Fatal("c missing")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

// TestTTLFromLastUse: an entry used every 50 s under a 1 min TTL never
// expires; left alone past the TTL, it is swept.
func TestTTLFromLastUse(t *testing.T) {
	clk := newClock()
	c := New[string, string](time.Minute, 8, clk.now)
	c.Do(context.Background(), "k", value("v"))
	for i := 0; i < 5; i++ {
		clk.add(50 * time.Second)
		if _, ok := c.Get("k"); !ok {
			t.Fatalf("use %d: expired 50 s after the previous use", i+1)
		}
	}
	clk.add(time.Minute)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived past its TTL")
	}
	if st := c.Stats(); st.Expirations != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want one expiration", st)
	}
}

// TestUpdateIsNotAUse: Update replaces a resolved value when fn says so,
// reads it otherwise, and leaves the TTL running from the last real use.
func TestUpdateIsNotAUse(t *testing.T) {
	clk := newClock()
	c := New[string, string](time.Minute, 8, clk.now)
	if c.Update("k", func(v string) (string, bool) { return v, true }) {
		t.Fatal("Update of an absent key reported present")
	}
	c.Do(context.Background(), "k", value("v"))
	c.Update("k", func(v string) (string, bool) { return v + "1", true })
	var seen string
	c.Update("k", func(v string) (string, bool) { seen = v; return "ignored", false })
	if seen != "v1" {
		t.Fatalf("Update saw %q, want v1", seen)
	}
	clk.add(50 * time.Second)
	c.Update("k", func(v string) (string, bool) { return v, false })
	clk.add(20 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("Update refreshed the TTL")
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("Hits = %d, want 0: Update is not a hit", st.Hits)
	}
}

// TestDelete: a resolved entry is dropped; a pending one is left to
// resolve and is stored when it does.
func TestDelete(t *testing.T) {
	c := New[string, string](time.Minute, 8, nil)
	c.Do(context.Background(), "r", value("r"))
	if !c.Delete("r") {
		t.Fatal("Delete of a resolved entry reported absent")
	}
	if _, ok := c.Get("r"); ok || c.Delete("r") {
		t.Fatal("deleted entry still present")
	}
	release, done := hold(t, c, "p")
	if c.Delete("p") {
		t.Fatal("Delete removed a pending entry")
	}
	release("p", true)
	<-done
	if v, ok := c.Get("p"); !ok || v != "p" {
		t.Fatalf("pending entry after Delete resolved to %q, %v", v, ok)
	}
}

// TestCounters pins every Stats field over one scripted history.
func TestCounters(t *testing.T) {
	clk := newClock()
	c := New[string, string](time.Minute, 2, clk.now)
	ctx := context.Background()
	c.Do(ctx, "a", value("a")) // miss, stored
	c.Do(ctx, "a", value("a")) // hit
	c.Get("x")                 // miss
	c.Do(ctx, "b", value("b")) // miss, stored
	c.Do(ctx, "c", value("c")) // miss, stored, evicts a
	clk.add(2 * time.Minute)
	c.Get("b") // b and c expire; miss
	want := Stats{Hits: 1, Misses: 5, Stored: 3, Evictions: 1, Expirations: 2}
	if st := c.Stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestConcurrentChurn is the package's -race leg: goroutines drive Do,
// Get, Update and Delete over a key space larger than the capacity while
// the clock moves and some results are not kept.
func TestConcurrentChurn(t *testing.T) {
	clk := newClock()
	const capacity = 4
	c := New[string, string](time.Second, capacity, clk.now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprint((g + i) % 8)
				switch i % 4 {
				case 0, 1:
					v, _, _ := c.Do(context.Background(), key, func() (string, bool, error) {
						return key, i%3 != 0, nil
					})
					if v != key {
						t.Errorf("Do(%s) = %q", key, v)
					}
				case 2:
					if v, ok := c.Get(key); ok && v != key {
						t.Errorf("Get(%s) = %q", key, v)
					}
					c.Update(key, func(v string) (string, bool) { return v, true })
				case 3:
					c.Delete(key)
					clk.add(100 * time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > capacity || st.Stored > st.Misses {
		t.Fatalf("stats = %+v: population over capacity or more stored than computed", st)
	}
}
