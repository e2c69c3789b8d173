package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/interp"
	"repro/internal/progstore"
	"repro/internal/pycode"
	"repro/internal/pycompile"
	"repro/internal/route"
	"repro/internal/runtime"
	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// This file is the seam between the benchmark and the serving stack: the
// only place that names internal/ constructors, and the home of the span
// decorators the traced run installs around the layers' public entry
// points. Nothing under internal/ or cmd/ knows it is being measured.

// Fixed shape of every topology (ISSUE 11): 2 client connections, VM
// capacity for 2 concurrent jobs, GOMAXPROCS 2.
const (
	benchProcs   = 2
	benchClients = 2
	benchWorkers = 2
)

// Topology kinds.
const (
	topoDirect = "direct" // one serve over supervise.NewPool(Workers: 2)
	topoRouted = "routed" // route.New over 2 replicas × 1 worker
	topoSched  = "sched"  // one serve over supervise.NewSched(Slots: 1, Lanes: 2)
)

// Span layers.
const (
	layerClient = "client"
	layerRoute  = "route"
	layerServe  = "serve"
	layerSubmit = "submit"
)

// Span is one timed crossing of a layer boundary. Times are nanoseconds
// since the trace epoch on the process's monotonic clock.
type Span struct {
	// Req is the request id the client chose; ID is the id this layer saw
	// (the router appends .rN / .h2 per attempt), which names the parent:
	// an attempt span is a child of the routed request Req.
	Req   string `json:"req"`
	ID    string `json:"id"`
	Layer string `json:"layer"`
	Start int64  `json:"startNs"`
	End   int64  `json:"endNs"`
	// Submit spans only: what the backend reported about the interval.
	// Parked is time between preemption and resumption under Sched; -1
	// when the lifecycle trace was capped and it cannot be recovered.
	Queued int64 `json:"queuedNs,omitempty"`
	Run    int64 `json:"runNs,omitempty"`
	Parked int64 `json:"parkedNs,omitempty"`
}

// Trace collects spans in memory; they are analysed and written out only
// after the run ends. Only requests whose id starts with sampledPrefix
// are recorded: on a small live heap every retained megabyte relaxes the
// collector's pace, and a buffer holding every span of a 25,000-request
// run made the traced system up to 20% *faster* than the untraced one.
// Sampling keeps the buffer near a quarter of a megabyte.
type Trace struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// sampledPrefix marks the ids of requests the decorators record.
const sampledPrefix = 't'

func newTrace() *Trace { return &Trace{epoch: time.Now()} }

func (t *Trace) now() int64 { return int64(time.Since(t.epoch)) }

func sampled(id string) bool { return id != "" && id[0] == sampledPrefix }

func (t *Trace) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *Trace) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceHandler times h's /v1/run handling as one span of layer, keyed by
// the X-Request-Id that reached it.
func traceHandler(t *Trace, layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(api.HeaderRequestID)
		if r.URL.Path != "/v1/run" || !sampled(id) {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(Span{Req: baseID(id), ID: id, Layer: layer, Start: start, End: t.now()})
	})
}

// tracedBackend times Backend.Submit. The job carries no request id, so
// the client puts its id in the request's name field, which serve copies
// to Job.Name.
type tracedBackend struct {
	serve.Backend
	t *Trace
}

func (b tracedBackend) Submit(job *supervise.Job) *supervise.JobResult {
	if !sampled(job.Name) {
		return b.Backend.Submit(job)
	}
	start := b.t.now()
	res := b.Backend.Submit(job)
	end := b.t.now()
	b.t.add(Span{
		Req: job.Name, ID: job.Name, Layer: layerSubmit, Start: start, End: end,
		Queued: int64(res.Queued), Run: int64(res.RunTime), Parked: parkedNanos(res),
	})
	return res
}

// parkedNanos sums a scheduled job's PREEMPTED→RUNNING gaps. The trace is
// capped at 32 events; past the cap the gaps cannot be recovered and the
// job is marked -1 (excluded from supervise self time, see selfTimes).
func parkedNanos(res *supervise.JobResult) int64 {
	if res.Preemptions == 0 {
		return 0
	}
	var parked time.Duration
	seen := 0
	var since time.Time
	for _, ev := range res.Lifecycle {
		switch ev.State {
		case supervise.LifePreempted:
			since = ev.At
			seen++
		case supervise.LifeRunning:
			if !since.IsZero() {
				parked += ev.At.Sub(since)
				since = time.Time{}
			}
		}
	}
	if seen != res.Preemptions {
		return -1
	}
	return int64(parked)
}

// servingLimits are cmd/pyserve's flag defaults.
var servingLimits = interp.Limits{
	MaxSteps:       50_000_000,
	MaxHeapBytes:   256 << 20,
	Deadline:       5 * time.Second,
	MaxOutputBytes: 8 << 20,
}

// replica is one in-process pyserve.
type replica struct {
	srv     *serve.Server
	backend serve.Backend
	close   func()
	http    *httptest.Server
}

// Topology is one serving stack on loopback TCP, wired as cmd/pyserve and
// cmd/pyroute wire it, plus the handles the counters are read from.
type Topology struct {
	// URL is where the client sends.
	URL      string
	replicas []*replica
	router   *route.Router
	front    *httptest.Server // the router's listener (routed only)
	client   *http.Client
}

// replicaAddrs are where a routed topology's replicas listen. The router
// hashes its ring from the backend URLs, so on ephemeral ports every
// topology would split the 32 handlers between the replicas differently
// (busiest share anywhere from 0.5 to 0.7) and handlers-routed would
// measure the draw. Fixed ports make the split a property of the corpus.
var replicaAddrs = [benchWorkers]string{"127.0.0.1:42101", "127.0.0.1:42102"}

// newReplica builds one pyserve: backend, server, listener (on addr, or
// on an ephemeral port when addr is empty or taken). The per-job log line
// is produced as in cmd/pyserve and discarded.
func newReplica(kind string, workers int, addr string, t *Trace) *replica {
	reg := telemetry.NewRegistry()
	rp := &replica{}
	if kind == topoSched {
		s := supervise.NewSched(supervise.SchedConfig{
			Slots:         1,
			Lanes:         2,
			RecycleAfter:  256,
			Metrics:       supervise.NewMetrics(reg),
			DefaultLimits: servingLimits,
		})
		rp.backend, rp.close = s, s.Close
	} else {
		p := supervise.NewPool(supervise.Config{
			Workers:       workers,
			RecycleAfter:  256,
			Metrics:       supervise.NewMetrics(reg),
			DefaultLimits: servingLimits,
		})
		rp.backend, rp.close = p, p.Close
	}
	be := rp.backend
	if t != nil {
		be = tracedBackend{Backend: be, t: t}
	}
	rp.srv = serve.NewWithOptions(be, reg, serve.Options{
		DrainTimeout: 30 * time.Second,
		LogW:         io.Discard,
	})
	var h http.Handler = rp.srv.Mux()
	if t != nil {
		h = traceHandler(t, layerServe, h)
	}
	rp.http = httptest.NewUnstartedServer(h)
	if addr != "" {
		if l, err := net.Listen("tcp", addr); err == nil {
			rp.http.Listener.Close()
			rp.http.Listener = l
		}
	}
	rp.http.Start()
	return rp
}

// BuildTopology stands the named topology up. t non-nil installs the
// span decorators; nil builds it bare, as the end-to-end run needs it.
func BuildTopology(kind string, t *Trace) (*Topology, error) {
	top := &Topology{client: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
		},
	}}
	switch kind {
	case topoDirect, topoSched:
		rp := newReplica(kind, benchWorkers, "", t)
		top.replicas = []*replica{rp}
		top.URL = rp.http.URL
	case topoRouted:
		var urls []string
		for i := 0; i < benchWorkers; i++ {
			rp := newReplica(kind, 1, replicaAddrs[i], t)
			top.replicas = append(top.replicas, rp)
			urls = append(urls, rp.http.URL)
		}
		reg := telemetry.NewRegistry()
		rt, err := route.New(route.Config{
			Backends: urls,
			Metrics:  route.NewMetrics(reg, urls),
			Logw:     io.Discard,
		})
		if err != nil {
			top.Close()
			return nil, fmt.Errorf("build router: %w", err)
		}
		top.router = rt
		var h http.Handler = rt.Mux()
		if t != nil {
			h = traceHandler(t, layerRoute, h)
		}
		top.front = httptest.NewServer(h)
		top.URL = top.front.URL
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
	return top, nil
}

// Close tears the topology down and waits for its goroutines.
func (top *Topology) Close() {
	top.client.CloseIdleConnections()
	if top.front != nil {
		top.front.Close()
	}
	if top.router != nil {
		top.router.Close()
	}
	for _, rp := range top.replicas {
		rp.http.Close()
		rp.close()
	}
}

// Register posts each program to /v1/programs (through the router when
// there is one, which broadcasts it) and records the ref it came back
// under.
func (top *Topology) Register(progs []*Program) error {
	for _, p := range progs {
		body, err := json.Marshal(api.RegisterRequestV1{Name: p.Name, Src: p.Src})
		if err != nil {
			return err
		}
		resp, err := top.client.Post(top.URL+"/v1/programs", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("register %s: %w", p.Name, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("register %s: %w", p.Name, err)
		}
		var out api.RegisterResultV1
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &out) != nil || out.ProgramRef == "" {
			return fmt.Errorf("register %s: status %d: %s", p.Name, resp.StatusCode, data)
		}
		p.Ref = out.ProgramRef
	}
	return nil
}

// Counters are the serving tier's own lifetime counts, summed over
// replicas, read at the layer that owns each.
type Counters struct {
	ProgHits, ProgMisses, ProgEvictions      uint64
	DedupHits, DedupRecorded, DedupEvictions uint64
	Shed, Restarts                           uint64
}

// Counters snapshots the topology's counters.
func (top *Topology) Counters() Counters {
	var c Counters
	for _, rp := range top.replicas {
		ps := rp.srv.ProgStats()
		c.ProgHits += ps.Hits
		c.ProgMisses += ps.Misses
		c.ProgEvictions += ps.Evictions
		ds := rp.srv.DedupStats()
		c.DedupHits += ds.Hits
		c.DedupRecorded += ds.Recorded
		c.DedupEvictions += ds.Evictions
		st := rp.backend.Stats()
		c.Shed += st.Shed
		c.Restarts += st.Restarts
	}
	return c
}

// ---- direct probes: the layers' public functions, off the request path ----

// Runner configurations the interpreter probes compare.
const (
	cfgUnarmed = "unarmed"  // runtime.ServingConfig: what a pool worker runs
	cfgArmed   = "armed"    // AttributedServingConfig: emission feeding uarch/core
	cfgCold    = "cold"     // NoQuicken
	cfgTier1   = "tier1"    // NoTier2
	cfgPyPyJIT = "pypy-jit" // ServingConfig(PyPyJIT)
)

var runnerConfigs = []string{cfgUnarmed, cfgArmed, cfgCold, cfgTier1, cfgPyPyJIT}

// ProbeRunner is a runtime.Runner under one of the named configurations.
type ProbeRunner struct{ r *runtime.Runner }

// NewProbeRunner builds a runner for a named configuration.
func NewProbeRunner(config string) (*ProbeRunner, error) {
	cfg := runtime.ServingConfig(runtime.CPython)
	switch config {
	case cfgUnarmed:
	case cfgArmed:
		cfg = runtime.AttributedServingConfig(runtime.CPython)
	case cfgCold:
		cfg.NoQuicken = true
	case cfgTier1:
		cfg.NoTier2 = true
	case cfgPyPyJIT:
		cfg = runtime.ServingConfig(runtime.PyPyJIT)
	default:
		return nil, fmt.Errorf("unknown runner config %q", config)
	}
	r, err := runtime.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return &ProbeRunner{r: r}, nil
}

// Reset pre-builds pristine VM state, as a worker does between jobs.
func (p *ProbeRunner) Reset() { p.r.Reset() }

// RunStats is what one probe execution reports.
type RunStats struct {
	Stdout    string
	Bytecodes uint64
	// SimInstrs and SimCycles are zero unless the configuration is armed.
	SimInstrs, SimCycles uint64
}

// Code is a compiled program.
type Code = *pycode.Code

// Run executes compiled code once.
func (p *ProbeRunner) Run(code Code) (RunStats, error) {
	res, err := p.r.RunCode(code)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{Stdout: res.Output, Bytecodes: res.VM.Bytecodes, SimInstrs: res.Instrs, SimCycles: res.Cycles}, nil
}

// Compile is the compiler's public entry point.
func Compile(name, src string) (Code, error) { return pycompile.CompileSource(name, src) }

// ProgStore is a program store at its serving defaults (cap 1,024).
type ProgStore struct{ s *progstore.Store }

func NewProgStore() *ProgStore { return &ProgStore{s: progstore.New(progstore.Options{})} }

// Register resolves src, compiling it on a miss; it reports the ref.
func (p *ProgStore) Register(name, src string) (ref string, hit bool, err error) {
	prog, hit, err := p.s.Register(name, src)
	if err != nil {
		return "", false, err
	}
	return prog.Ref, hit, nil
}

// Lookup resolves a ref.
func (p *ProgStore) Lookup(ref string) bool {
	_, ok := p.s.Lookup(ref)
	return ok
}
