package serve

import (
	"time"

	"repro/internal/telemetry"
)

// dedup.go is pyserve's exactly-once layer: Server.dedup, an sfcache of
// recorded results keyed by client-supplied idempotency keys.
//
// The contract: for one key, the program body executes at most once per
// TTL window on this backend, and the window runs from the key's last
// use (its execution or its latest replay). The first request under a
// key executes and records its result; every replay within the TTL — a
// router re-routing a mid-flight network failure, a client retrying a
// timed-out call — returns the recorded RunResultV1 without touching the
// worker pool. Concurrent replays single-flight: one executes, the rest
// wait on it and absorb its result, so even a replay racing the original
// cannot double-execute. Only executed outcomes are recorded; a shed
// releases the key so the retry that follows is its first execution.
//
// Overhead discipline (SlipCover's): requests without a key never touch
// the cache — one empty-string compare and the whole subsystem
// disappears. Keyed requests pay one mutex'd map lookup per consult,
// off the worker-pool critical path; nothing here runs inside a job.
// The p50 cost of the consult is pinned by the router-dedup-overhead
// benchgate entry.

// dedupDefaults.
const (
	defaultDedupTTL = 5 * time.Minute
	defaultDedupCap = 4096
)

// DedupStats is a point-in-time view of the dedup cache, used by the
// chaos soak's oracle and the admin surface.
type DedupStats struct {
	// Hits counts replays absorbed by a recorded result.
	Hits uint64 `json:"hits"`
	// Recorded counts first executions whose results were cached.
	Recorded uint64 `json:"recorded"`
	// Evictions counts capacity evictions; Expirations TTL sweeps.
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"`
	// Entries is the current population (pending included).
	Entries int `json:"entries"`
	// MaxExecutions is the largest execution-count stamp ever recorded
	// under one key. The exactly-once invariant is MaxExecutions <= 1;
	// the byte-chaos soak asserts it.
	MaxExecutions int `json:"maxExecutions"`
}

// DedupStats reports the dedup cache's lifetime counters; the router
// chaos soak's oracle reads MaxExecutions to prove exactly-once.
func (s *Server) DedupStats() DedupStats {
	st := s.dedup.Stats()
	return DedupStats{
		Hits:          st.Hits,
		Recorded:      st.Stored,
		Evictions:     st.Evictions,
		Expirations:   st.Expirations,
		Entries:       st.Entries,
		MaxExecutions: int(s.maxExecs.Load()),
	}
}

// noteExecutions folds a recorded result's execution stamp into
// MaxExecutions.
func (s *Server) noteExecutions(n int) {
	for m := s.maxExecs.Load(); int64(n) > m && !s.maxExecs.CompareAndSwap(m, int64(n)); m = s.maxExecs.Load() {
	}
}

// instrumentDedup exposes the dedup counters under pyserve_dedup_*.
func (s *Server) instrumentDedup(reg *telemetry.Registry) {
	reg.CounterFunc("pyserve_dedup_hits_total",
		"Idempotent replays absorbed by the result-dedup cache.",
		func() uint64 { return s.dedup.Stats().Hits })
	reg.CounterFunc("pyserve_dedup_recorded_total",
		"First executions recorded in the result-dedup cache.",
		func() uint64 { return s.dedup.Stats().Stored })
	reg.CounterFunc("pyserve_dedup_evictions_total",
		"Dedup cache entries evicted for capacity before their TTL.",
		func() uint64 { return s.dedup.Stats().Evictions })
}
