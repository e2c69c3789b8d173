// Package progstore is the content-addressed program store: an sfcache
// of immutable compiled code objects plus their portable IC seeds, keyed
// by the hex SHA-256 of the program source.
//
// The store answers the fleet-scale version of the paper's cold-start
// problem: compilation and cold dispatch are paid per VM, and across a
// fleet serving the same few hot programs that work is redone on every
// worker and every request re-ships identical source bytes. Here a
// program compiles once per process (single-flight: concurrent
// same-hash arrivals wait behind one compiler, under the same cache
// policy as the serve tier's idempotency dedup), every subsequent run
// references it by hash, and the first completed run donates a portable
// IC seed (internal/interp/icseed.go) so later workers start
// tier-1-warm.
//
// The ref is not just a cache key — it is the same content identity the
// routing tier's consistent-hash ring uses (route.ContentHash is the
// first 8 bytes of the same digest), so run-by-reference requests pin
// to the same backend as inline requests for the same program, and that
// backend's store entry stays hot for it.
//
// Two invariants the rest of the stack leans on:
//
//   - Code identity: for one ref, at most one *pycode.Code exists per
//     process. Code objects are immutable after compilation and every
//     VM materializes its own mutable state, so sharing the object
//     across workers is safe and keeps per-VM quickening coherent.
//   - Seeds are advisory: a stale or damaged seed may cost a refill,
//     never a semantic change (see the icseed.go contract). The store
//     therefore treats seeds as droppable metadata — eviction, TTL
//     expiry, or a lost OfferSeed race never affect correctness.
package progstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/pycode"
	"repro/internal/pycompile"
	"repro/internal/sfcache"
	"repro/internal/telemetry"
)

// Defaults. Programs are far heavier than dedup entries (a compiled
// code tree plus seed), so the default capacity is smaller; the TTL is
// longer because a program's identity never goes stale. The TTL counts
// from a program's last use, so expiry only reclaims programs nobody
// runs any more.
const (
	DefaultTTL = 30 * time.Minute
	DefaultCap = 1024
)

// RefLen is the length of a program reference: hex SHA-256.
const RefLen = 64

// Ref returns the content address of a program source: the hex SHA-256
// of its bytes. The first 16 hex digits parse to the routing tier's
// ring key (route.RefKey).
func Ref(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// ValidRef reports whether s is shaped like a program reference.
func ValidRef(s string) bool {
	if len(s) != RefLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Program is the resolved view of one stored program.
type Program struct {
	Ref  string
	Src  string
	Code *pycode.Code
	// Seed is the portable IC seed donated by the first completed run,
	// nil until one lands. Advisory only.
	Seed *interp.ICSeed
}

// record is one stored program plus the metadata Info reports. Failed
// compiles are never stored, so a bad program never occupies capacity
// and a later identical registration retries cleanly.
type record struct {
	Program
	created, seedAt time.Time
	// hits is shared by every copy of the record, so the per-program
	// count survives OfferSeed replacing the stored value.
	hits *atomic.Uint64
}

// use counts a hit on r when hit is set and returns the caller's copy
// of its program.
func (r record) use(hit bool) *Program {
	if hit {
		r.hits.Add(1)
	}
	p := r.Program
	return &p
}

// Options parameterizes a Store. Zero values take defaults; Compile and
// Now are injectable for tests (deterministic clock, counting compiler).
type Options struct {
	TTL     time.Duration
	Cap     int
	Compile func(name, src string) (*pycode.Code, error)
	Now     func() time.Time
}

// Store is the bounded single-flight program store.
type Store struct {
	cache   *sfcache.Cache[string, record]
	compile func(name, src string) (*pycode.Code, error)
	now     func() time.Time
	seeds   atomic.Uint64
}

// New builds a store.
func New(opts Options) *Store {
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.Cap <= 0 {
		opts.Cap = DefaultCap
	}
	if opts.Compile == nil {
		opts.Compile = pycompile.CompileSource
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Store{
		cache:   sfcache.New[string, record](opts.TTL, opts.Cap, opts.Now),
		compile: opts.Compile,
		now:     opts.Now,
	}
}

// Instrument registers the store's counters with reg under the
// minipy_progstore_* namespace.
func (s *Store) Instrument(reg *telemetry.Registry) {
	counter := func(name, help string, field func(Stats) uint64) {
		reg.CounterFunc(name, help, func() uint64 { return field(s.StatsSnapshot()) })
	}
	counter("minipy_progstore_hits_total",
		"Program-store lookups answered from a resolved entry.",
		func(st Stats) uint64 { return st.Hits })
	counter("minipy_progstore_misses_total",
		"Program-store lookups that found no resolved entry (fresh compiles included).",
		func(st Stats) uint64 { return st.Misses })
	counter("minipy_progstore_seeds_total",
		"Portable IC seeds accepted into the store.",
		func(st Stats) uint64 { return st.Seeds })
	counter("minipy_progstore_evictions_total",
		"Entries evicted for capacity (TTL expirations excluded).",
		func(st Stats) uint64 { return st.Evictions })
	counter("minipy_progstore_compile_singleflight_waits_total",
		"Registrations that waited behind another caller's in-flight compile.",
		func(st Stats) uint64 { return st.Waits })
}

// Register resolves src to its stored program, compiling at most once
// per process however many callers race: the first caller under a ref
// compiles, the rest wait on it. name labels the program in compile
// errors only. hit reports whether the program was already resolved
// (callers that waited on another caller's compile report hit too — the
// compile was not theirs). A failed compile is returned to its caller
// and cached by none; waiters behind it compile again.
func (s *Store) Register(name, src string) (p *Program, hit bool, err error) {
	ref := Ref(src)
	r, hit, err := s.cache.Do(context.Background(), ref, func() (record, bool, error) {
		code, err := s.compile(name, src)
		rec := record{Program: Program{Ref: ref, Src: src, Code: code}, created: s.now(), hits: new(atomic.Uint64)}
		return rec, err == nil, err
	})
	if err != nil {
		return nil, false, err
	}
	return r.use(hit), hit, nil
}

// Lookup resolves a ref. Pending entries block until their compile
// resolves (compiles are pure CPU and fast). Reports false for unknown,
// expired, or failed refs.
func (s *Store) Lookup(ref string) (*Program, bool) {
	r, ok := s.cache.Get(ref)
	if !ok {
		return nil, false
	}
	return r.use(true), true
}

// OfferSeed donates a portable IC seed for ref. The first seed wins —
// seeds from later runs describe the same steady state, and a stable
// seed keeps warm-start behaviour deterministic. Unknown refs and nil
// seeds are dropped silently (the seed is advisory; so is its loss).
func (s *Store) OfferSeed(ref string, seed *interp.ICSeed) {
	if seed == nil {
		return
	}
	s.cache.Update(ref, func(r record) (record, bool) {
		if r.Seed != nil {
			return r, false
		}
		r.Seed, r.seedAt = seed, s.now()
		s.seeds.Add(1)
		return r, true
	})
}

// Info is the metadata view of one stored program (GET /v1/programs/{ref}).
type Info struct {
	Ref      string `json:"programRef"`
	SrcBytes int    `json:"srcBytes"`
	Compiled bool   `json:"compiled"`
	Hits     uint64 `json:"hits"`
	AgeMs    int64  `json:"ageMs"`
	// ICSeed reports whether a seed has been donated; ICSeedAgeMs its
	// age and ICSeedSites its total seeded-site count.
	ICSeed      bool  `json:"icSeed"`
	ICSeedAgeMs int64 `json:"icSeedAgeMs,omitempty"`
	ICSeedSites int   `json:"icSeedSites,omitempty"`
}

// InfoFor returns the metadata of a stored ref. Reading it is not a use:
// it neither counts a hit nor refreshes the TTL.
func (s *Store) InfoFor(ref string) (Info, bool) {
	var info Info
	ok := s.cache.Update(ref, func(r record) (record, bool) {
		now := s.now()
		info = Info{
			Ref:      r.Ref,
			SrcBytes: len(r.Src),
			Compiled: true,
			Hits:     r.hits.Load(),
			AgeMs:    now.Sub(r.created).Milliseconds(),
			ICSeed:   r.Seed != nil,
		}
		if r.Seed != nil {
			info.ICSeedAgeMs = now.Sub(r.seedAt).Milliseconds()
			info.ICSeedSites = r.Seed.Sites()
		}
		return r, false
	})
	return info, ok
}

// Delete invalidates a stored ref (DELETE /v1/programs/{ref}); reports
// whether it was present. Pending entries are left to resolve — their
// compiler holds no stale state worth interrupting — and only resolved
// entries are removed.
func (s *Store) Delete(ref string) bool { return s.cache.Delete(ref) }

// Stats is a point-in-time view of the store: the cache's lifetime
// counters plus the seeds accepted. Misses include every fresh compile;
// Waits counts callers that waited behind another caller's in-flight
// compile (the single-flight path).
type Stats struct {
	sfcache.Stats
	Seeds uint64
}

// StatsSnapshot returns the store's lifetime counters.
func (s *Store) StatsSnapshot() Stats { return Stats{Stats: s.cache.Stats(), Seeds: s.seeds.Load()} }
