// Package serve is the pyserve HTTP serving layer: the versioned /v1
// JSON surface over an internal/supervise scheduler. cmd/pyserve is a
// thin flag-parsing wrapper; keeping the server here lets the router
// (internal/route) and its chaos soaks spin real in-process backends.
//
// Endpoints:
//
//	POST /v1/run     execute one MiniPy program on a warm worker
//	GET  /v1/metrics Prometheus text exposition
//	GET  /v1/healthz pure liveness: 200 while any worker is alive,
//	                 including while draining — "shutting down, stop
//	                 routing here" is readiness, not death
//	GET  /v1/readyz  readiness: 503 while draining or while admission
//	                 is shedding at the heap watermark; routers drain
//	                 nodes on this signal without ejecting them
//	POST /drainz     graceful drain: stop admitting, wait for in-flight
//
// The unversioned endpoints (/run, /metrics, /healthz) are deprecated
// aliases kept for existing clients: same behavior, but /run answers
// with a Deprecation header and its validation errors keep the legacy
// flat {"error": "message"} shape.
//
// Every executed request gets a request id — the client-supplied
// X-Request-Id when present (so a routing tier's ids survive end to
// end), a daemon-unique generated one otherwise — echoed in the
// response body, the X-Request-Id header, and one structured JSON log
// line.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/progstore"
	"repro/internal/runtime"
	"repro/internal/sfcache"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// Backend is the execution engine behind the HTTP surface: a
// supervise.Sched in either configuration (exclusive via NewPool, or
// step-sliced via NewSched), or anything that embeds one — such as a
// timing decorator. The server only needs the submit/observe/drain
// triad; everything scheduler-specific travels inside Job and JobResult.
type Backend interface {
	Submit(job *supervise.Job) *supervise.JobResult
	Stats() supervise.Stats
	Drain(timeout time.Duration) bool
}

// Server ties the backend to the HTTP mux; tests and the router soak
// drive it in-process via Mux.
type Server struct {
	pool Backend
	// reg is the telemetry registry backing GET /metrics.
	reg *telemetry.Registry
	// drainTimeout bounds how long /drainz waits for in-flight jobs.
	drainTimeout time.Duration
	// nextID numbers executed requests that did not bring their own id.
	nextID atomic.Uint64
	// logw receives one JSON line per executed job (nil disables).
	// logMu serializes writers so interleaved handlers cannot shear a
	// line.
	logw  io.Writer
	logMu sync.Mutex

	// dedup is the exactly-once result cache for requests that declare
	// an idempotency key (see dedup.go); maxExecs backs
	// DedupStats.MaxExecutions.
	dedup    *sfcache.Cache[string, api.RunResultV1]
	maxExecs atomic.Int64
	// progs is the content-addressed program store behind /v1/programs
	// and run-by-reference; inline /v1/run sources register read-through.
	progs *progstore.Store
	// mIntegrityRejects counts requests rejected for an X-Content-Digest
	// mismatch before parsing.
	mIntegrityRejects *telemetry.Counter

	// limits caches Limits.Normalize results keyed by the raw
	// (comparable) Limits value. Serving traffic reuses a handful of
	// limit shapes across millions of submits; re-validating the same
	// value every time was measurable overhead for zero information.
	limits *sfcache.Cache[api.Limits, api.Limits]
}

// Options tunes server construction beyond the required pool/registry.
type Options struct {
	// DrainTimeout bounds how long /drainz waits for in-flight jobs.
	DrainTimeout time.Duration
	// LogW receives one JSON line per executed job (nil disables).
	LogW io.Writer
	// DedupTTL is how long an idempotency key's recorded result stays
	// replayable after its last use (default 5m).
	DedupTTL time.Duration
	// DedupCap bounds the dedup cache population (default 4096).
	DedupCap int
	// ProgTTL is how long a registered program stays resolvable after
	// its last use (default progstore.DefaultTTL).
	ProgTTL time.Duration
	// ProgCap bounds the program-store population (default
	// progstore.DefaultCap).
	ProgCap int
}

// NewWithOptions builds a Server over a backend. reg backs /metrics; a nil
// reg serves an empty exposition.
func NewWithOptions(pool Backend, reg *telemetry.Registry, opts Options) *Server {
	if opts.DedupTTL <= 0 {
		opts.DedupTTL = defaultDedupTTL
	}
	if opts.DedupCap <= 0 {
		opts.DedupCap = defaultDedupCap
	}
	s := &Server{
		pool:         pool,
		reg:          reg,
		drainTimeout: opts.DrainTimeout,
		logw:         opts.LogW,
		dedup:        sfcache.New[string, api.RunResultV1](opts.DedupTTL, opts.DedupCap, nil),
		progs:        progstore.New(progstore.Options{TTL: opts.ProgTTL, Cap: opts.ProgCap}),
		limits:       sfcache.New[api.Limits, api.Limits](limitsMemoTTL, limitsMemoCap, nil),
	}
	s.progs.Instrument(reg)
	s.instrumentDedup(reg)
	s.mIntegrityRejects = reg.Counter("pyserve_integrity_rejects_total",
		"Requests rejected for an X-Content-Digest mismatch.")
	return s
}

// ProgStats reports the program store's lifetime counters.
func (s *Server) ProgStats() progstore.Stats { return s.progs.StatsSnapshot() }

// Mux returns the server's route table.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRunV1)
	mux.HandleFunc("/v1/programs", s.handleProgramsV1)
	mux.HandleFunc("/v1/programs/", s.handleProgramV1)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/run", s.handleRunLegacy)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/drainz", s.handleDrainz)
	return mux
}

// jobLog is the structured per-job log line.
type jobLog struct {
	Time      string  `json:"ts"`
	RequestID string  `json:"requestId"`
	Name      string  `json:"name"`
	Mode      string  `json:"mode"`
	Class     string  `json:"class"`
	Worker    int     `json:"worker"`
	QueuedMs  float64 `json:"queuedMs"`
	RunMs     float64 `json:"runMs"`
	Bytecodes uint64  `json:"bytecodes,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Deduped marks a replay absorbed by the result-dedup cache; the
	// line records the recorded result, not a fresh execution.
	Deduped bool `json:"deduped,omitempty"`
}

func (s *Server) logJob(id string, job *supervise.Job, res *supervise.JobResult) {
	if s.logw == nil {
		return
	}
	line, err := json.Marshal(jobLog{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: id,
		Name:      job.Name,
		Mode:      res.Mode.String(),
		Class:     res.Class.String(),
		Worker:    res.Worker,
		QueuedMs:  float64(res.Queued) / float64(time.Millisecond),
		RunMs:     float64(res.RunTime) / float64(time.Millisecond),
		Bytecodes: res.Bytecodes,
		Error:     res.Err,
	})
	if err != nil {
		return
	}
	s.logMu.Lock()
	_, _ = s.logw.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// logDedup writes the structured log line for a dedup hit: no job ran,
// so the fields come from the recorded result.
func (s *Server) logDedup(id string, req *api.RunRequestV1, rec *api.RunResultV1) {
	if s.logw == nil {
		return
	}
	name := req.Name
	if name == "" {
		name = "request.py"
	}
	line, err := json.Marshal(jobLog{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		RequestID: id,
		Name:      name,
		Mode:      rec.Mode,
		Class:     rec.ExitClass,
		Worker:    rec.Worker,
		Deduped:   true,
	})
	if err != nil {
		return
	}
	s.logMu.Lock()
	_, _ = s.logw.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// maxBody bounds a /run request body (programs are small; a runaway
// client must not balloon the daemon).
const maxBody = 1 << 20

// maxRequestID bounds a client-supplied X-Request-Id: beyond it the id
// is discarded and a local one generated, so a hostile client cannot
// stuff megabytes into every log line.
const maxRequestID = 128

// requestID resolves the request's id: the client-supplied X-Request-Id
// when present and sane, a daemon-unique generated one otherwise. A
// routing tier forwards its id (with per-attempt suffixes) through this
// header, so one id ties the router's log line to the backend's.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get(api.HeaderRequestID); id != "" && len(id) <= maxRequestID {
		return id
	}
	return "r" + strconv.FormatUint(s.nextID.Add(1), 10)
}

func (s *Server) handleRunV1(w http.ResponseWriter, r *http.Request) {
	s.serveRun(w, r, true)
}

// LegacySunset is the retirement date the unversioned /run alias
// announces (RFC 8594 Sunset header). Only /v1 carries compatibility
// guarantees; the alias is frozen at its pre-v1 behavior until this
// date and may be removed after it.
const LegacySunset = "Fri, 01 Jan 2027 00:00:00 GMT"

// handleRunLegacy is the deprecated unversioned alias of /v1/run: same
// execution path, but it announces its deprecation and retirement date
// in headers and keeps the flat {"error": "message"} error shape for
// existing clients.
func (s *Server) handleRunLegacy(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Sunset", LegacySunset)
	w.Header().Set("Link", `</v1/run>; rel="successor-version"`)
	s.serveRun(w, r, false)
}

// failRun writes a request-rejection response: the /v1 machine-readable
// envelope (digest-stamped, like every /v1/run response), or the legacy
// flat shape for the deprecated alias.
func (s *Server) failRun(w http.ResponseWriter, v1 bool, status int, code, msg string) {
	if v1 {
		writeJSONDigested(w, status, api.ErrorEnvelope{Err: api.Error{Code: code, Message: msg}})
		return
	}
	httpError(w, status, msg)
}

func (s *Server) serveRun(w http.ResponseWriter, r *http.Request, v1 bool) {
	fail := func(status int, code, msg string) { s.failRun(w, v1, status, code, msg) }
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		fail(http.StatusBadRequest, api.CodeBadJSON, "read body: "+err.Error())
		return
	}
	if len(body) > maxBody {
		fail(http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
			fmt.Sprintf("program exceeds %d bytes", maxBody))
		return
	}
	// Integrity gate, before the parser ever sees the bytes: a routing
	// tier that stamped X-Content-Digest gets a hard reject if the body
	// was damaged in transit. The job provably never executed, so the
	// router retries this freely.
	if want := r.Header.Get(api.HeaderContentDigest); v1 && want != "" {
		if got := api.Digest(body); got != want {
			s.mIntegrityRejects.Inc()
			fail(http.StatusUnprocessableEntity, api.CodeIntegrity,
				"request body does not match "+api.HeaderContentDigest)
			return
		}
	}
	var req api.RunRequestV1
	if err := json.Unmarshal(body, &req); err != nil {
		fail(http.StatusBadRequest, api.CodeBadJSON, "bad JSON: "+err.Error())
		return
	}
	if v1 {
		// Exactly one program identity per request: inline source or a
		// registered reference, never both, never neither.
		if (req.Src == "") == (req.ProgramRef == "") {
			fail(http.StatusBadRequest, api.CodeMissingProgram,
				"exactly one of src and programRef is required")
			return
		}
	} else if req.Src == "" {
		// The legacy alias never grew run-by-reference (documented
		// v1-only); it keeps its original rejection.
		fail(http.StatusBadRequest, api.CodeMissingSrc, "missing src")
		return
	}
	if len(req.IdempotencyKey) > api.MaxIdempotencyKey {
		fail(http.StatusBadRequest, api.CodeBadIdempotencyKey,
			fmt.Sprintf("idempotencyKey exceeds %d bytes", api.MaxIdempotencyKey))
		return
	}
	if req.Lane < 0 {
		fail(http.StatusBadRequest, api.CodeBadJSON, "lane must be non-negative")
		return
	}
	if len(req.Tenant) > api.MaxTenant {
		fail(http.StatusBadRequest, api.CodeBadJSON,
			fmt.Sprintf("tenant exceeds %d bytes", api.MaxTenant))
		return
	}
	mode := runtime.CPython
	if req.Mode != "" {
		mode, err = runtime.ParseMode(req.Mode)
		if err != nil {
			fail(http.StatusBadRequest, api.CodeBadMode, err.Error())
			return
		}
	}
	job := &supervise.Job{
		Name:   req.Name,
		Src:    req.Src,
		Mode:   mode,
		Lane:   req.Lane,
		Tenant: req.Tenant,
	}
	if job.Name == "" {
		job.Name = "request.py"
	}
	job.Breakdown = req.Breakdown
	if l := req.Limits; l != nil {
		// All budget validation — negative rejection, the 24h deadline
		// cap that used to be an overflow hazard — lives in Normalize;
		// nothing invalid ever reaches the pool. Results are memoized:
		// serving traffic reuses a handful of limit shapes.
		norm, err := s.normalizeLimits(*l)
		if err != nil {
			code := api.CodeInvalidLimits
			if ae, ok := err.(*api.Error); ok {
				code = ae.Code
			}
			fail(http.StatusBadRequest, code, err.Error())
			return
		}
		job.Limits = norm
	}

	// Program-store resolution. Run-by-reference must find a live entry;
	// inline v1 sources register read-through (compile once per process,
	// fall back to worker-side compilation on a compile error so the
	// error response keeps its pre-store shape). The legacy alias never
	// touches the store.
	var prog *progstore.Program
	programCache := ""
	if v1 && req.ProgramRef != "" {
		if !progstore.ValidRef(req.ProgramRef) {
			fail(http.StatusBadRequest, api.CodeBadProgram,
				"programRef must be a hex SHA-256")
			return
		}
		p, ok := s.progs.Lookup(req.ProgramRef)
		if !ok {
			fail(http.StatusNotFound, api.CodeUnknownProgram,
				"unknown programRef (never registered, expired, or invalidated)")
			return
		}
		prog = p
		programCache = api.ProgramCacheHit
	} else if v1 {
		if p, hit, err := s.progs.Register(job.Name, req.Src); err == nil {
			prog = p
			programCache = api.ProgramCacheMiss
			if hit {
				programCache = api.ProgramCacheHit
			}
		}
	}
	if prog != nil {
		job.Code = prog.Code
		job.ICSeed = prog.Seed
		if prog.Seed != nil {
			programCache = api.ProgramCacheSeeded
		} else {
			// No seed donated yet: have this run export one. Collection
			// only observes the quickened state, so the run's semantics
			// and statistics are untouched.
			job.CollectICSeed = true
		}
	}

	id := s.requestID(r)

	// Exactly-once. Requests without a key skip all of this — one string
	// compare and the dedup layer vanishes. Keyed requests single-flight:
	// exactly one concurrent holder of a key executes; replays
	// (concurrent or later, within the TTL) absorb its recorded result
	// without touching the pool.
	var res *supervise.JobResult
	var resp api.RunResultV1
	if v1 && req.IdempotencyKey != "" {
		rec, hit, err := s.dedup.Do(r.Context(), req.IdempotencyKey, func() (api.RunResultV1, bool, error) {
			res, resp = s.runJob(job, id, prog, programCache, true)
			// Only executed outcomes are recorded: a shed job never
			// started, so releasing the key lets the retry that follows
			// the Retry-After hint be the key's first execution.
			executed := res.Class.Executed()
			if executed {
				s.noteExecutions(resp.Executions)
			}
			return resp, executed, nil
		})
		if err != nil {
			return // client gone while waiting; nothing to answer
		}
		if hit {
			rec.RequestID = id
			rec.Deduped = true
			s.logDedup(id, &req, &rec)
			w.Header().Set(api.HeaderRequestID, id)
			writeJSONDigested(w, http.StatusOK, rec)
			return
		}
	} else {
		res, resp = s.runJob(job, id, prog, programCache, false)
	}
	if prog != nil && res.Class == supervise.ClassOK && res.ICSeed != nil {
		// Donate the clean run's quickened shapes; the next run of this
		// ref — on this worker or a fresh one — starts tier-1-warm.
		s.progs.OfferSeed(prog.Ref, res.ICSeed)
	}
	s.logJob(id, job, res)
	status := http.StatusOK
	if res.Class == supervise.ClassShed {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(res.RetryAfter)))
	}
	w.Header().Set(api.HeaderRequestID, id)
	if v1 {
		writeJSONDigested(w, status, resp)
	} else {
		writeJSON(w, status, resp)
	}
}

// runJob submits job to the backend and builds its response. keyed
// requests carry the execution-count stamp.
func (s *Server) runJob(job *supervise.Job, id string, prog *progstore.Program, programCache string, keyed bool) (*supervise.JobResult, api.RunResultV1) {
	res := s.pool.Submit(job)
	resp := api.RunResultV1{
		APIVersion: api.Version,
		RequestID:  id,
		ExitClass:  res.Class.String(),
		ExitCode:   res.Class.ExitCode(),
		Stdout:     res.Output,
		Error:      res.Err,
		Mode:       res.Mode.String(),
		Worker:     res.Worker,
		QueuedMs:   float64(res.Queued) / float64(time.Millisecond),
		RunMs:      float64(res.RunTime) / float64(time.Millisecond),
	}
	if prog != nil {
		resp.ProgramCache = programCache
		resp.ProgramRef = prog.Ref
	}
	resp.Preemptions = res.Preemptions
	if n := len(res.Lifecycle); n > 0 {
		// Offsets are relative to the first event (QUEUED), so the trace
		// is self-contained without shipping absolute timestamps.
		t0 := res.Lifecycle[0].At
		resp.Lifecycle = make([]api.LifeEventV1, n)
		for i, ev := range res.Lifecycle {
			resp.Lifecycle[i] = api.LifeEventV1{
				State:    ev.State.String(),
				OffsetMs: float64(ev.At.Sub(t0)) / float64(time.Millisecond),
			}
		}
	}
	if res.Class == supervise.ClassShed {
		resp.RetryAfter = float64(res.RetryAfter) / float64(time.Millisecond)
	}
	if res.Class == supervise.ClassOK {
		resp.Stats = &api.RunStatsV1{
			Bytecodes:   res.Bytecodes,
			Allocs:      res.Allocs,
			MinorGCs:    res.MinorGCs,
			MajorGCs:    res.MajorGCs,
			ErrorDeopts: res.ErrorDeopts,
			ICHits:      res.IC.Hits(),
			ICMisses:    res.IC.Misses(),
			ICHitRate:   res.IC.HitRate(),
		}
		if res.Breakdown != nil {
			resp.Breakdown = res.Breakdown.Report()
		}
	}
	if keyed && res.Class.Executed() {
		// The execution-count stamp: how many times the body ran under
		// this key here. A value above 1 would mean the dedup layer
		// failed, and the chaos soak asserts on it.
		resp.Executions = 1
	}
	return res, resp
}

// The normalize memo's bounds: a hostile client cycling limit values
// must not grow it without bound, and an eviction only costs the next
// request with that shape a re-validation. Normalize is pure, so the
// TTL only reclaims shapes nobody sends any more.
const (
	limitsMemoCap = 1024
	limitsMemoTTL = time.Hour
)

// normalizeLimits is Limits.Normalize behind a memo keyed on the raw
// value. Only successful normalizations are cached — errors are the
// rare path and keep their exact message.
func (s *Server) normalizeLimits(l api.Limits) (api.Limits, error) {
	norm, _, err := s.limits.Do(context.Background(), l, func() (api.Limits, bool, error) {
		norm, err := l.Normalize()
		return norm, err == nil, err
	})
	return norm, err
}

// handleProgramsV1 is POST /v1/programs: register a program source in
// the content-addressed store. Registration is idempotent — re-posting
// the same source returns the same ref — and single-flight under
// concurrency. Like the backend-reconfig surface (PUT
// /v1/admin/backends), this is an unauthenticated admin-plane endpoint;
// deployments front it with their own auth.
func (s *Server) handleProgramsV1(w http.ResponseWriter, r *http.Request) {
	failV1 := func(status int, code, msg string) {
		writeJSONDigested(w, status, api.ErrorEnvelope{Err: api.Error{Code: code, Message: msg}})
	}
	if r.Method != http.MethodPost {
		failV1(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		failV1(http.StatusBadRequest, api.CodeBadJSON, "read body: "+err.Error())
		return
	}
	if len(body) > maxBody {
		failV1(http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
			fmt.Sprintf("request exceeds %d bytes", maxBody))
		return
	}
	var req api.RegisterRequestV1
	if err := json.Unmarshal(body, &req); err != nil {
		failV1(http.StatusBadRequest, api.CodeBadJSON, "bad JSON: "+err.Error())
		return
	}
	if req.Src == "" {
		failV1(http.StatusBadRequest, api.CodeMissingSrc, "missing src")
		return
	}
	if len(req.Src) > api.MaxProgramSrc {
		failV1(http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge,
			fmt.Sprintf("src exceeds %d bytes", api.MaxProgramSrc))
		return
	}
	name := req.Name
	if name == "" {
		name = "program.py"
	}
	p, _, err := s.progs.Register(name, req.Src)
	if err != nil {
		// A syntactically bad program never occupies the store; the
		// compile error travels in the envelope.
		failV1(http.StatusBadRequest, api.CodeBadProgram, err.Error())
		return
	}
	writeJSONDigested(w, http.StatusOK, api.RegisterResultV1{
		APIVersion:      api.Version,
		ProgramRef:      p.Ref,
		Compiled:        true,
		ICSeedAvailable: p.Seed != nil,
	})
}

// handleProgramV1 is GET/DELETE /v1/programs/{ref}: store metadata for
// one program, and explicit invalidation.
func (s *Server) handleProgramV1(w http.ResponseWriter, r *http.Request) {
	failV1 := func(status int, code, msg string) {
		writeJSONDigested(w, status, api.ErrorEnvelope{Err: api.Error{Code: code, Message: msg}})
	}
	ref := strings.TrimPrefix(r.URL.Path, "/v1/programs/")
	if !progstore.ValidRef(ref) {
		failV1(http.StatusBadRequest, api.CodeBadProgram, "programRef must be a hex SHA-256")
		return
	}
	switch r.Method {
	case http.MethodGet:
		info, ok := s.progs.InfoFor(ref)
		if !ok {
			failV1(http.StatusNotFound, api.CodeUnknownProgram, "unknown programRef")
			return
		}
		writeJSONDigested(w, http.StatusOK, api.ProgramInfoV1{
			APIVersion:  api.Version,
			ProgramRef:  info.Ref,
			SrcBytes:    info.SrcBytes,
			Compiled:    info.Compiled,
			Hits:        info.Hits,
			AgeMs:       info.AgeMs,
			ICSeed:      info.ICSeed,
			ICSeedAgeMs: info.ICSeedAgeMs,
			ICSeedSites: info.ICSeedSites,
		})
	case http.MethodDelete:
		if !s.progs.Delete(ref) {
			failV1(http.StatusNotFound, api.CodeUnknownProgram, "unknown programRef")
			return
		}
		writeJSONDigested(w, http.StatusOK, map[string]bool{"deleted": true})
	default:
		failV1(http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET or DELETE only")
	}
}

// RetryAfterSeconds renders a retry hint as the integer seconds of the
// Retry-After header, rounding UP: truncation would tell clients to come
// back before the hint elapses (1.9s became "1"), re-shedding the
// well-behaved ones.
func RetryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// healthzResponse reports pool occupancy and lifetime counters.
type healthzResponse struct {
	Ok    bool            `json:"ok"`
	Stats supervise.Stats `json:"stats"`
}

// handleHealthz is pure liveness: 200 while any worker is alive. A
// draining node is still alive — conflating "shutting down, stop routing
// here" with "dead" made routers eject nodes that were gracefully
// finishing their in-flight work; that signal moved to /v1/readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	ok := st.Workers > 0
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, healthzResponse{Ok: ok, Stats: st})
}

// readyzResponse reports routability and the reason when not ready.
type readyzResponse struct {
	Ready  bool            `json:"ready"`
	Reason string          `json:"reason,omitempty"`
	Stats  supervise.Stats `json:"stats"`
}

// handleReadyz is readiness: whether this node should receive new work.
// Not-ready (503, with a Retry-After hint for backoff) while draining or
// while admission is shedding at the heap watermark; dead (no workers)
// is also not ready. Routers use this to drain nodes without ejecting
// them.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	reason := ""
	switch {
	case st.Workers == 0:
		reason = "no live workers"
	case st.Draining:
		reason = "draining"
	case st.HeapWatermark > 0 && st.HeapReserved >= st.HeapWatermark:
		reason = "heap watermark reached"
	}
	if reason != "" {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(s.drainTimeout/4)))
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Ready: false, Reason: reason, Stats: st})
		return
	}
	writeJSON(w, http.StatusOK, readyzResponse{Ready: true, Stats: st})
}

// drainzResponse reports the drain outcome.
type drainzResponse struct {
	Drained bool            `json:"drained"`
	Stats   supervise.Stats `json:"stats"`
}

func (s *Server) handleDrainz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ok := s.pool.Drain(s.drainTimeout)
	status := http.StatusOK
	if !ok {
		// In-flight jobs outlived the drain window. Tell the caller when
		// another attempt could succeed: the longest a remaining job can
		// still run is one default deadline.
		status = http.StatusGatewayTimeout
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(s.drainTimeout)))
	}
	writeJSON(w, status, drainzResponse{Drained: ok, Stats: s.pool.Stats()})
}

// writeJSONDigested is writeJSON for the /v1/run surface: the body is
// marshalled to a buffer first so its SHA-256 can travel in
// X-Pyserve-Digest. The router verifies the digest before trusting the
// bytes — a truncated or bit-flipped response fails closed instead of
// reaching a client as a wrong answer.
func writeJSONDigested(w http.ResponseWriter, status int, v interface{}) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.HeaderResultDigest, api.Digest(buf.Bytes()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
