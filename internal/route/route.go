// Package route is the pyroute front tier: an HTTP router that
// consistent-hashes MiniPy programs across N backend pyserve replicas
// and keeps serving correctly while individual nodes crash, wedge,
// drain, or shed.
//
// Robustness machinery, in the order a request meets it:
//
//   - Consistent hashing (ring.go): the program's content hash pins it
//     to one backend, keeping that backend's inline caches warm for it;
//     ejections only remap the keys that hashed to the ejected node.
//   - Active health checking (health.go): per-backend probes against
//     /v1/readyz drive an eject → half-open → readmit state machine,
//     with readiness (draining, heap watermark) kept distinct from
//     liveness so draining nodes are bypassed, not ejected.
//   - Per-backend flap breaker: readmissions are budgeted per window,
//     mirroring the supervisor's restart-budget breaker — a flapping
//     node is held out instead of being fed traffic on every recovery.
//   - Bounded retries: only failures that prove the job never executed
//     (dial errors, 503 rejections) are re-routed; anything that may
//     have executed returns an upstream_error instead of risking a
//     double execution. Retries spend from a token-bucket retry budget
//     and back off exponentially with jitter, honoring backend
//     Retry-After hints.
//   - Optional tail-latency hedging: after a histogram-derived delay, a
//     duplicate attempt races the slow primary (safe because /v1/run is
//     pure compute); first acceptable answer wins, the loser is
//     canceled.
//   - Graceful degradation: with a single routable backend the router
//     collapses to pass-through — no hedging, no re-routing, just the
//     one hop.
//
// The happy path stays off every slow structure: one ring lookup, one
// atomic-token nibble, one upstream round trip; health state is only
// read, never written, unless a failure happens.
package route

import (
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sfcache"
	"repro/internal/telemetry"
)

// Config parameterizes a Router. Zero values take the documented
// defaults.
type Config struct {
	// Backends are the pyserve replica base URLs ("http://host:port").
	// Required, at least one.
	Backends []string

	// UpstreamTimeout bounds one forwarded attempt (default 30s).
	UpstreamTimeout time.Duration
	// ProbeInterval paces the active health prober (default 1s);
	// ProbeTimeout bounds one probe (default 500ms).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// FailThreshold is how many consecutive connect failures (probe or
	// traffic) eject a backend (default 3).
	FailThreshold int
	// ReadmitAfter is the ejection cooldown before a half-open trial
	// (default 2s).
	ReadmitAfter time.Duration
	// ReadmitBudget/ReadmitWindow are the flap breaker: at most Budget
	// readmissions per Window, past which the backend is held ejected
	// (defaults 4 per minute).
	ReadmitBudget int
	ReadmitWindow time.Duration

	// MaxAttempts caps attempts per request, first try included
	// (default 3, clamped to the initial backend count).
	MaxAttempts int
	// MetricsTimeout bounds one backend's /v1/metrics fetch during fleet
	// aggregation (default 1s). Each backend gets its own deadline: one
	// stalled replica delays the fleet scrape by at most this much, it
	// cannot hold the whole scrape hostage.
	MetricsTimeout time.Duration
	// RetryBudgetRatio is the token-bucket accrual: each incoming
	// request earns this many retry tokens, each retry spends one
	// (default 0.2 — retries may not exceed ~20% of traffic). The
	// bucket is capped at RetryBudgetBurst (default 50).
	RetryBudgetRatio float64
	RetryBudgetBurst float64
	// BackoffBase paces same-request retries when no alternative
	// backend is immediately available (default 25ms), doubling per
	// attempt up to backoffMax; a backend Retry-After hint floors the
	// wait.
	BackoffBase time.Duration

	// Hedge enables tail-latency hedging: if the primary attempt is
	// still in flight after the observed HedgeQuantile upstream latency
	// (default p95, floored by HedgeMinDelay, default 5ms), a duplicate
	// races it on the next ring backend. Off by default — it trades
	// duplicate execution for tail latency, which is only safe because
	// /v1/run is pure compute.
	Hedge         bool
	HedgeQuantile float64
	HedgeMinDelay time.Duration

	// Seed drives the retry-jitter PRNG (0 picks a fixed default).
	Seed uint64
	// Metrics, when non-nil, mirrors router activity into telemetry
	// (see NewMetrics). Nil runs unobserved on a zero Metrics.
	Metrics *Metrics
	// Logw receives one structured JSON line per request and per
	// health-state transition (nil disables).
	Logw io.Writer
}

// backoffMax caps one same-request retry backoff; maxRetryWait bounds
// the total sleeping one request may do — a Retry-After hint beyond it
// fails the request fast instead of parking the client.
const (
	backoffMax   = time.Second
	maxRetryWait = 2 * time.Second
)

func (c *Config) setDefaults() {
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2 * time.Second
	}
	if c.ReadmitBudget <= 0 {
		c.ReadmitBudget = 4
	}
	if c.ReadmitWindow <= 0 {
		c.ReadmitWindow = time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if n := len(c.Backends); c.MaxAttempts > n && n > 0 {
		c.MaxAttempts = n
	}
	if c.MetricsTimeout <= 0 {
		c.MetricsTimeout = time.Second
	}
	if c.RetryBudgetRatio <= 0 {
		c.RetryBudgetRatio = 0.2
	}
	if c.RetryBudgetBurst <= 0 {
		c.RetryBudgetBurst = 50
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 5 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 0x9E3779B97F4A7C15
	}
}

// fleet is one immutable generation of the router's backend set: the
// backends and the ring built over them, published together behind one
// atomic pointer. Every reader — request routing, probing, health
// reports, metric gauges — loads the pointer once and works on a
// consistent snapshot; Reconfigure builds the next generation and swaps
// it in, so the traffic path never sees a half-updated fleet and never
// takes a lock.
type fleet struct {
	backends []*backend // index-aligned with the ring's idx space
	ring     *ring
}

// Router is the front tier. Obtain one from New, serve its Mux, Close it
// when done. The backend set can be changed at runtime via Reconfigure
// (SIGHUP or /v1/admin/backends in cmd/pyroute) without a restart.
type Router struct {
	cfg   Config
	fleet atomic.Pointer[fleet]

	// reconfigMu serializes Reconfigure calls (the traffic path never
	// takes it); it also guards parting.
	reconfigMu sync.Mutex
	// parting holds removed backends still draining in-flight requests;
	// pruned on the next admin read once their inflight count hits zero.
	parting []*backend

	client      *http.Client // upstream traffic
	probeClient *http.Client // active probes (shorter timeout)

	// retryTokens is the token bucket, in millitokens so the accrual
	// ratio works on an atomic integer. Each incoming request adds
	// ratio*1000; each retry spends 1000.
	retryTokens atomic.Int64

	// lat is upstream attempt latency, the hedge delay's source. Private:
	// the exposed per-backend pyroute_upstream_seconds gets the same
	// samples.
	lat telemetry.Histogram

	// rng drives retry jitter (xorshift64 under rngMu; jitter is off
	// the happy path).
	rngMu sync.Mutex
	rng   uint64

	nextID atomic.Uint64 // generated request ids ("pr<N>")

	// progs is the router's memory of program sources registered through
	// it (ref → source), used to re-register read-through when a backend
	// answers a run-by-reference request with unknown_program (fresh
	// replica, expired entry, invalidation).
	progs *sfcache.Cache[string, progRecord]

	metrics *Metrics
	logw    io.Writer
	logMu   sync.Mutex

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// New builds and starts a Router (including its health prober).
func New(cfg Config) (*Router, error) {
	cfg.setDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errNoBackendsConfigured
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	rt := &Router{
		cfg: cfg,
		client: &http.Client{
			Timeout: cfg.UpstreamTimeout,
			// The default transport caps idle conns per host at 2; a
			// router funnels all traffic through few hosts, so raise it
			// or every burst pays connection setup.
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
				DialContext: (&net.Dialer{
					Timeout: cfg.UpstreamTimeout,
				}).DialContext,
			},
		},
		probeClient: &http.Client{Timeout: cfg.ProbeTimeout},
		progs:       sfcache.New[string, progRecord](progMemoryTTL, progMemoryCap, nil),
		rng:         cfg.Seed,
		metrics:     cfg.Metrics,
		logw:        cfg.Logw,
		probeStop:   make(chan struct{}),
		probeDone:   make(chan struct{}),
	}
	f := &fleet{ring: buildRing(cfg.Backends)}
	for _, u := range cfg.Backends {
		f.backends = append(f.backends, &backend{url: u, slot: rt.metrics.slotFor(u)})
	}
	rt.fleet.Store(f)
	rt.retryTokens.Store(int64(cfg.RetryBudgetBurst * 1000))
	rt.registerGauges()
	go rt.probeLoop()
	return rt, nil
}

// Close stops the health prober. In-flight requests finish normally.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.probeStop)
		<-rt.probeDone
	})
}

// errNoBackendsConfigured rejects a backend-less Config at construction.
var errNoBackendsConfigured = errString("route: no backends configured")

type errString string

func (e errString) Error() string { return string(e) }

// candidates returns the backends eligible for key in ring-preference
// order: the healthy ones, or — when nothing in the fleet is healthy —
// the drained-but-alive ones as a last resort. A drained backend is
// alive and enforcing its own admission control (watermark shedding,
// graceful drain), so when there is no better node the request is
// passed through and the backend's per-request verdict (accept, or
// 503 + Retry-After) stands; synthesizing a router-side rejection here
// would make a fleet that is merely saturated look dead. Ejected and
// half-open backends are never candidates. A nil slice means nothing
// is even alive to try.
func (rt *Router) candidates(key uint64) []*backend {
	f := rt.fleet.Load()
	var out []*backend
	f.ring.walk(key, func(idx int) bool {
		if b := f.backends[idx]; b.routable() {
			out = append(out, b)
		}
		return true
	})
	if out == nil {
		f.ring.walk(key, func(idx int) bool {
			if b := f.backends[idx]; b.drained() {
				out = append(out, b)
			}
			return true
		})
	}
	return out
}

// routableCount is the current number of routable backends.
func (rt *Router) routableCount() int {
	n := 0
	for _, b := range rt.fleet.Load().backends {
		if b.routable() {
			n++
		}
	}
	return n
}

// earnRetryToken credits the bucket for one incoming request.
func (rt *Router) earnRetryToken() {
	cap := int64(rt.cfg.RetryBudgetBurst * 1000)
	add := int64(rt.cfg.RetryBudgetRatio * 1000)
	if v := rt.retryTokens.Add(add); v > cap {
		rt.retryTokens.Store(cap)
	}
}

// spendRetryToken takes one retry's worth from the bucket; false means
// the budget is exhausted and the retry must not happen.
func (rt *Router) spendRetryToken() bool {
	for {
		v := rt.retryTokens.Load()
		if v < 1000 {
			return false
		}
		if rt.retryTokens.CompareAndSwap(v, v-1000) {
			return true
		}
	}
}

// jitter scales d by a factor uniform in [0.5, 1.5).
func (rt *Router) jitter(d time.Duration) time.Duration {
	rt.rngMu.Lock()
	x := rt.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	rt.rng = x
	rt.rngMu.Unlock()
	frac := float64(x%1024) / 1024 // [0, 1)
	return time.Duration(float64(d) * (0.5 + frac))
}

// hedgeDelay derives the hedge trigger from observed upstream latency:
// the lower edge of the configured quantile's bucket, floored by
// HedgeMinDelay (which also covers the cold start before enough samples
// exist).
func (rt *Router) hedgeDelay() time.Duration {
	d := rt.lat.Snapshot().Quantile(rt.cfg.HedgeQuantile)
	if d < rt.cfg.HedgeMinDelay {
		d = rt.cfg.HedgeMinDelay
	}
	return d
}
