// Package faults is a deterministic, seeded fault injector for the MiniPy
// runtime's chaos mode. Subsystems call Should at their fault sites (heap
// allocation, nursery bump, JIT guard execution, trace compilation) and the
// injector decides — reproducibly, from the seed alone — whether the fault
// fires there. It exists to *prove* graceful degradation: every injected
// fault must surface as a well-formed Python exception or a silent fallback
// to a slower path, never as a host panic or an output divergence.
//
// Two firing disciplines compose per fault kind:
//
//   - EveryN: fire deterministically at every Nth visit of the site
//     ("alloc-failure every 1000th allocation").
//   - Rate: fire with probability 1/Rate per visit, driven by a seeded
//     xorshift PRNG, so long soaks explore many interleavings while staying
//     replayable from the seed.
//
// The injector is not safe for concurrent use; give each VM its own.
package faults

import (
	"fmt"
	"strings"
)

// Kind identifies a fault site class.
type Kind uint8

// Fault kinds.
const (
	// AllocFail makes a heap allocation fail as if the heap were
	// exhausted; the runtime must surface MemoryError.
	AllocFail Kind = iota
	// NurseryExhaust forces a minor collection before a nursery bump,
	// stressing GC at arbitrary program points; semantics must not change.
	NurseryExhaust
	// GuardCorrupt forces a JIT guard to take its deoptimization exit even
	// though its condition holds (generalizing the old BrokenGuards hook
	// in a semantics-preserving direction); repeated firing must blacklist
	// the trace and fall back to the interpreter.
	GuardCorrupt
	// TraceCompileFail aborts trace compilation at the final stage; the
	// loop must keep running interpreted.
	TraceCompileFail
	// WorkerWedge stalls a supervised job at its first slice (the
	// executor sleeps past the scheduler's watchdog), simulating a job
	// that neither finishes nor trips a VM limit. The scheduler must
	// classify the job as wedged, release its slot, and retire its
	// Runner — the scheduler itself must stay up.
	WorkerWedge
	// GuardChainCorrupt forces a polymorphic inline-cache chain walk to
	// report a whole-chain miss even when an entry would have matched.
	// The site must fall back to the generic lookup and refill with
	// identical program-visible behaviour — the chain only ever elides
	// lookup work, never changes its result.
	GuardChainCorrupt
	// BackendDown kills a serving replica behind the router mid-run: the
	// node stops accepting connections until revived (or for good). The
	// router must eject it after its failure threshold and keep serving
	// from the survivors with zero wrong answers.
	BackendDown
	// BackendSlow wedges a serving replica: requests hang past the
	// router's upstream timeout instead of failing fast. Unlike a dead
	// node it consumes a full timeout before the failure is visible —
	// the router's health prober must still eject it.
	BackendSlow
	// BackendFlap bounces a replica between down and up, the worst case
	// for eject/readmit hysteresis: the router's readmit breaker must
	// hold a flapping node out rather than feed it live traffic on every
	// brief recovery.
	BackendFlap
	// NetReset hard-closes a proxied TCP connection mid-stream (RST, not
	// FIN): the peer sees "connection reset" partway through an exchange.
	// The serving tiers must treat it as a mid-flight failure — never a
	// wrong answer, never a duplicate execution past the dedup layer.
	NetReset
	// NetStall freezes a proxied connection half-open: bytes stop flowing
	// in the response direction but the connection stays established, so
	// only a deadline (not an error) can unstick the caller.
	NetStall
	// NetTruncate forwards a prefix of a response chunk and then closes
	// the connection, producing a short body under a longer declared
	// Content-Length.
	NetTruncate
	// NetCorrupt flips bytes inside a proxied chunk. End-to-end content
	// digests must catch the damage before it can surface as a wrong
	// answer.
	NetCorrupt
	// NetDelay injects latency before forwarding a proxied chunk,
	// jittering the timing of otherwise-healthy exchanges.
	NetDelay
	// SeedCorrupt perturbs one portable IC-seed entry at import time
	// (program-store warm start): the guard-checked hint fields are
	// damaged before the fill. Because seeds are advisory — every seeded
	// state self-validates against live VM state at hit time — a
	// corrupted seed may cost a refill but must never change program
	// behaviour.
	SeedCorrupt
	// NumKinds is the number of fault kinds.
	NumKinds
)

var kindNames = [NumKinds]string{"alloc-fail", "nursery-exhaust", "guard-corrupt", "trace-compile-fail",
	"worker-wedge", "guard-chain-corrupt",
	"backend-down", "backend-slow", "backend-flap",
	"net-reset", "net-stall", "net-truncate", "net-corrupt", "net-delay",
	"seed-corrupt"}

// String returns the kind's name.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Config parameterizes an Injector. Zero values disable a discipline.
type Config struct {
	// Seed drives the Rate discipline's PRNG (0 picks a fixed default so
	// a zero Config is still deterministic).
	Seed uint64
	// Rate[k], when nonzero, fires kind k with probability 1/Rate[k] per
	// site visit.
	Rate [NumKinds]uint64
	// EveryN[k], when nonzero, fires kind k at every EveryN[k]-th visit.
	EveryN [NumKinds]uint64
}

// Injector decides fault firing. A nil *Injector never fires, so callers
// may invoke Should unconditionally.
type Injector struct {
	cfg Config
	rng uint64

	// Sites counts visits per kind; Fired counts injected faults.
	Sites [NumKinds]uint64
	Fired [NumKinds]uint64
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Injector{cfg: cfg, rng: seed}
}

// NewRate builds an injector firing each listed kind with probability
// 1/rate per site (the chaos soak's configuration).
func NewRate(seed, rate uint64, kinds ...Kind) *Injector {
	cfg := Config{Seed: seed}
	for _, k := range kinds {
		cfg.Rate[k] = rate
	}
	return New(cfg)
}

// NewEveryNth builds an injector firing kind at every nth site visit
// (deterministic boundary tests).
func NewEveryNth(kind Kind, n uint64) *Injector {
	cfg := Config{}
	cfg.EveryN[kind] = n
	return New(cfg)
}

// Should reports whether the fault of kind k fires at this site visit.
// Deterministic in the visit sequence and seed. Safe on a nil receiver.
func (in *Injector) Should(k Kind) bool {
	if in == nil {
		return false
	}
	in.Sites[k]++
	fire := false
	if n := in.cfg.EveryN[k]; n != 0 && in.Sites[k]%n == 0 {
		fire = true
	}
	if r := in.cfg.Rate[k]; r != 0 && in.next()%r == 0 {
		fire = true
	}
	if fire {
		in.Fired[k]++
	}
	return fire
}

// next steps the xorshift64 PRNG.
func (in *Injector) next() uint64 {
	x := in.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	in.rng = x
	return x
}

// TotalFired returns the number of faults injected across all kinds.
// Safe on a nil receiver.
func (in *Injector) TotalFired() uint64 {
	if in == nil {
		return 0
	}
	var t uint64
	for _, f := range in.Fired {
		t += f
	}
	return t
}

// String renders per-kind site/fired counts ("alloc-fail 3/2841 ...").
func (in *Injector) String() string {
	if in == nil {
		return "faults: disabled"
	}
	parts := make([]string, 0, NumKinds)
	for k := Kind(0); k < NumKinds; k++ {
		if in.Sites[k] == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %d/%d", k, in.Fired[k], in.Sites[k]))
	}
	if len(parts) == 0 {
		return "faults: no sites visited"
	}
	return "faults: " + strings.Join(parts, ", ")
}
