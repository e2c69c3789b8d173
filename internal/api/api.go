package api

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/core"
)

// Version is the current serving API version, echoed in every /v1
// result so clients and logs can tell payload generations apart.
const Version = "v1"

// Machine-readable error codes carried by the /v1 error envelope.
// Clients dispatch on Code; Message is for humans and may change.
const (
	CodeBadJSON          = "bad_json"
	CodeMissingSrc       = "missing_src"
	CodeBadMode          = "bad_mode"
	CodeInvalidLimits    = "invalid_limits"
	CodeBodyTooLarge     = "body_too_large"
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeBadIdempotencyKey: the request's idempotencyKey exceeds
	// MaxIdempotencyKey bytes.
	CodeBadIdempotencyKey = "bad_idempotency_key"
	// CodeIntegrity: the request body did not match its X-Content-Digest
	// — the bytes were damaged in transit. The job was never parsed, let
	// alone executed, so a routing tier may retry it freely.
	CodeIntegrity = "integrity_violation"

	// Program-store codes (run-by-reference, see internal/progstore).
	//
	// CodeMissingProgram: the run request carried neither src nor
	// programRef (or both — exactly one is required).
	CodeMissingProgram = "missing_program"
	// CodeUnknownProgram: the programRef is well-formed but no live
	// entry backs it on this backend — never registered, expired, or
	// invalidated. Re-register the source and retry.
	CodeUnknownProgram = "unknown_program"
	// CodeBadProgram: a registration's source failed to compile, or a
	// supplied programRef is not shaped like one (hex SHA-256).
	CodeBadProgram = "bad_program"

	// Router (pyroute) error codes. A router rejection means the job was
	// never executed — clients may retry after the Retry-After hint.
	//
	// CodeNoBackends: every backend is ejected, draining, or down.
	CodeNoBackends = "no_backends"
	// CodeUpstreamError: the chosen backend failed in a way the router
	// must not retry (the job may have executed).
	CodeUpstreamError = "upstream_error"
	// CodeRetryBudget: the failure was retry-safe but the router's retry
	// budget is exhausted; retrying more would amplify an outage.
	CodeRetryBudget = "retry_budget_exhausted"
)

// HeaderRequestID is the request-id header both serving tiers speak: the
// router forwards the client-supplied id (generating one if absent) with
// a per-attempt suffix, and the backend echoes whatever id reached it,
// so one id ties the client's view, the router's log line, and the
// backend's log line together.
const HeaderRequestID = "X-Request-Id"

// Content-integrity headers. Real fleets die mid-byte: a response can be
// truncated, a body can be bit-flipped by a failing middlebox, and
// neither may ever surface as a wrong answer. Both serving tiers stamp
// and verify SHA-256 body digests:
//
//   - HeaderContentDigest travels router -> backend on /v1/run. The
//     backend verifies it before parsing; a mismatch is rejected with
//     CodeIntegrity (the job never executed, so the router retries).
//   - HeaderResultDigest travels backend -> router on every /v1/run
//     response. The router verifies the buffered body against it; a
//     mismatch (or a missing digest on a 2xx) is a mid-flight failure —
//     replayed under an idempotency key, surfaced as upstream_error
//     otherwise — never passed through to the client.
const (
	HeaderContentDigest = "X-Content-Digest"
	HeaderResultDigest  = "X-Pyserve-Digest"
)

// Digest returns the hex SHA-256 of body: the value both integrity
// headers carry.
func Digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// MaxIdempotencyKey bounds a client-supplied idempotency key; beyond it
// the request is rejected with CodeBadIdempotencyKey (a hostile client
// must not stuff megabytes into the dedup cache's key space).
const MaxIdempotencyKey = 128

// Error is a machine-readable API error. It implements error so
// validation helpers (Limits.Normalize) can return it directly and
// handlers can surface it without re-wrapping.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Message }

// ErrorEnvelope is the /v1 error response body:
//
//	{"error": {"code": "invalid_limits", "message": "..."}}
//
// The legacy (unversioned) endpoints keep their flat
// {"error": "message"} shape for existing clients.
type ErrorEnvelope struct {
	Err Error `json:"error"`
}

// RunRequestV1 is the POST /v1/run body.
type RunRequestV1 struct {
	// Name labels the program in logs and results; defaults to
	// "request.py".
	Name string `json:"name,omitempty"`
	// Src is the MiniPy program text. Exactly one of Src and ProgramRef
	// is required.
	Src string `json:"src,omitempty"`
	// ProgramRef runs a program previously registered via
	// POST /v1/programs, by its content address (hex SHA-256 of the
	// source). The backend executes its cached compiled form — and
	// warm-starts the worker from the program's IC seed when one has
	// been donated — without the request re-shipping source bytes.
	ProgramRef string `json:"programRef,omitempty"`
	// Mode selects the runtime per request (cpython, pypy-nojit,
	// pypy-jit, v8like; default cpython).
	Mode string `json:"mode,omitempty"`
	// Limits overrides the server's default budgets; zero fields
	// inherit. Validated by Limits.Normalize.
	Limits *Limits `json:"limits,omitempty"`
	// Breakdown opts this request into live overhead attribution: the
	// job runs on the worker's attribution-core runner (slower) and the
	// result carries the per-category cycle breakdown.
	Breakdown bool `json:"breakdown,omitempty"`
	// IdempotencyKey, when non-empty, declares the request idempotent
	// and keys it in the backend's result-dedup cache: a replay of the
	// same key within the cache TTL returns the recorded result instead
	// of executing again, and a routing tier may re-route mid-flight
	// failures of the request to another replica. Keys must be unique
	// per logical request (a UUID, or client-id + sequence); reusing a
	// key for a different program returns the first program's result.
	// At most MaxIdempotencyKey bytes.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
	// Lane is the priority lane under a step-sliced backend (0 is
	// highest; clamped to the backend's lane count). Ignored — and
	// harmless — in the one-lane exclusive configuration.
	Lane int `json:"lane,omitempty"`
	// Tenant is the fair-queueing identity under a step-sliced backend:
	// tenants within a lane are served round-robin, one slice each.
	// Empty is a valid (shared) tenant.
	Tenant string `json:"tenant,omitempty"`
}

// MaxTenant bounds the tenant label; beyond it the request is rejected
// (an unbounded label is a memory-growth vector in the fair queues).
const MaxTenant = 128

// LifeEventV1 is one step of a request's scheduler lifecycle trace:
// the state entered, and when, as milliseconds since the first event
// (QUEUED, which is therefore always at offset 0).
type LifeEventV1 struct {
	State    string  `json:"state"`
	OffsetMs float64 `json:"offsetMs"`
}

// RunStatsV1 carries the execution counters of a successful run.
type RunStatsV1 struct {
	Bytecodes   uint64 `json:"bytecodes"`
	Allocs      uint64 `json:"allocs"`
	MinorGCs    uint64 `json:"minorGCs"`
	MajorGCs    uint64 `json:"majorGCs"`
	ErrorDeopts uint64 `json:"errorDeopts,omitempty"`
	// Inline-cache effectiveness of the quickened interpreter: hits and
	// misses across all site kinds, plus derived hit rate in [0, 1].
	ICHits    uint64  `json:"icHits,omitempty"`
	ICMisses  uint64  `json:"icMisses,omitempty"`
	ICHitRate float64 `json:"icHitRate,omitempty"`
}

// RunResultV1 is the POST /v1/run reply. A 200 means the job executed;
// the job's own outcome (Python error, limit trip, internal error) is in
// ExitClass/ExitCode. Shed requests return 503 with RetryAfterMs set.
type RunResultV1 struct {
	APIVersion string       `json:"apiVersion"`
	RequestID  string       `json:"requestId"`
	ExitClass  string       `json:"exitClass"`
	ExitCode   int          `json:"exitCode"`
	Stdout     string       `json:"stdout"`
	Error      string       `json:"error,omitempty"`
	Mode       string       `json:"mode"`
	Worker     int          `json:"worker"`
	QueuedMs   float64      `json:"queuedMs"`
	RunMs      float64      `json:"runMs"`
	RetryAfter float64      `json:"retryAfterMs,omitempty"`
	Stats      *RunStatsV1  `json:"stats,omitempty"`
	Breakdown  *core.Report `json:"breakdown,omitempty"`

	// Exactly-once bookkeeping, present only for requests that carried
	// an idempotencyKey. Executions is the number of times the program
	// body actually ran under this key on the answering backend — the
	// execution-count stamp; anything above 1 is a dedup-layer bug.
	// Deduped marks a replay absorbed by the cache: the recorded result
	// was returned and nothing executed.
	Executions int  `json:"executions,omitempty"`
	Deduped    bool `json:"deduped,omitempty"`

	// Step-sliced scheduling trace, present only when the backend ran
	// the job under a scheduler. Preemptions counts quantum-boundary
	// parks (exact, even past the Lifecycle cap); Lifecycle is the
	// timestamped QUEUED→…→FINISHED transition trace.
	Preemptions int           `json:"preemptions,omitempty"`
	Lifecycle   []LifeEventV1 `json:"lifecycle,omitempty"`

	// ProgramCache stamps how the program store served this run:
	// "hit" (cached compiled form, no seed yet), "seeded" (cached form
	// plus an IC-seed warm start), "miss" (compiled for this request).
	// Empty on backends running without a store.
	ProgramCache string `json:"programCache,omitempty"`
	// ProgramRef echoes the content address the run resolved to, for
	// both run-by-reference and inline-source requests (inline sources
	// are registered read-through), so clients learn the ref to reuse.
	ProgramRef string `json:"programRef,omitempty"`
}

// Program-cache stamps carried by RunResultV1.ProgramCache.
const (
	ProgramCacheHit    = "hit"
	ProgramCacheSeeded = "seeded"
	ProgramCacheMiss   = "miss"
)

// MaxProgramSrc bounds a registration's source size. Oversized programs
// are rejected with CodeBodyTooLarge before hashing (the store is a
// shared cache; one hostile registration must not occupy megabytes).
const MaxProgramSrc = 1 << 20

// RegisterRequestV1 is the POST /v1/programs body: register a program
// source in the backend's content-addressed store.
type RegisterRequestV1 struct {
	// Name labels the program in compile errors; defaults to
	// "program.py".
	Name string `json:"name,omitempty"`
	// Src is the MiniPy program text. Required.
	Src string `json:"src"`
}

// RegisterResultV1 is the POST /v1/programs reply.
type RegisterResultV1 struct {
	APIVersion string `json:"apiVersion"`
	// ProgramRef is the program's content address: hex SHA-256 of Src.
	// Any replica of the fleet resolves the same source to the same ref.
	ProgramRef string `json:"programRef"`
	// Compiled reports that the store holds the compiled form (always
	// true on a 200; a failed compile is a 400 CodeBadProgram).
	Compiled bool `json:"compiled"`
	// ICSeedAvailable reports whether a portable IC seed has been
	// donated yet (the first completed run donates one).
	ICSeedAvailable bool `json:"icSeedAvailable"`
}

// ProgramInfoV1 is the GET /v1/programs/{ref} reply: store metadata for
// one registered program.
type ProgramInfoV1 struct {
	APIVersion string `json:"apiVersion"`
	ProgramRef string `json:"programRef"`
	SrcBytes   int    `json:"srcBytes"`
	Compiled   bool   `json:"compiled"`
	Hits       uint64 `json:"hits"`
	AgeMs      int64  `json:"ageMs"`
	ICSeed     bool   `json:"icSeed"`
	// ICSeedAgeMs / ICSeedSites describe the donated seed (present only
	// when ICSeed is true).
	ICSeedAgeMs int64 `json:"icSeedAgeMs,omitempty"`
	ICSeedSites int   `json:"icSeedSites,omitempty"`
}
