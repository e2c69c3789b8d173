package route

import "repro/internal/telemetry"

// Metrics mirrors router activity into a telemetry registry under the
// pyroute_ prefix. New replaces a nil Config.Metrics with a zero
// &Metrics{}: its nil instruments and nil registry are inert, so the
// unobserved router records through the same call sites and pays one
// predictable branch per event.
type Metrics struct {
	reg *telemetry.Registry

	// requests counts completed requests by outcome (ok, client_error,
	// shed, no_backends, retry_budget_exhausted, upstream_error).
	requests *telemetry.CounterVec
	// retries counts re-routed attempts; retryBudgetExhausted counts
	// retry-safe failures the budget refused to retry.
	retries              *telemetry.Counter
	retryBudgetExhausted *telemetry.Counter
	// hedges counts launched hedge attempts; hedgeWins counts the ones
	// whose response was used.
	hedges    *telemetry.Counter
	hedgeWins *telemetry.Counter
	// reconfigs counts applied fleet reconfigurations.
	reconfigs *telemetry.Counter
	// integrityFailures counts backend responses whose bytes failed the
	// X-Pyserve-Digest check (or lacked it on a 2xx).
	integrityFailures *telemetry.Counter
	// idemReplays counts mid-flight failures replayed under an
	// idempotency key instead of surfacing as upstream_error.
	idemReplays *telemetry.Counter

	// Per-backend families, labelled by backend URL. The fleet is
	// hot-reloadable, so new backends mint new series at runtime
	// (slotFor) instead of fixing the label set at registration.
	backendRequests *telemetry.CounterVec
	backendFailures *telemetry.CounterVec
	ejections       *telemetry.CounterVec
	readmits        *telemetry.CounterVec
	breakerHolds    *telemetry.CounterVec
	upstreamLatency *telemetry.HistogramVec
}

// NewMetrics registers the router's metric families on reg. The backend
// URL list seeds the per-backend label sets; Reconfigure grows them for
// backends added later.
func NewMetrics(reg *telemetry.Registry, backends []string) *Metrics {
	outcomes := make([]string, numOutcomes)
	copy(outcomes, outcomeNames[:])
	return &Metrics{
		reg: reg,
		requests: reg.CounterVec("pyroute_requests_total",
			"Completed router requests by outcome.", "outcome", outcomes),
		retries: reg.Counter("pyroute_retries_total",
			"Re-routed attempts (retry-safe failures sent to another backend or retried after backoff)."),
		retryBudgetExhausted: reg.Counter("pyroute_retry_budget_exhausted_total",
			"Retry-safe failures not retried because the retry token bucket was empty."),
		hedges: reg.Counter("pyroute_hedges_total",
			"Hedge attempts launched after the tail-latency delay."),
		hedgeWins: reg.Counter("pyroute_hedge_wins_total",
			"Hedge attempts whose response was returned to the client."),
		reconfigs: reg.Counter("pyroute_reconfigs_total",
			"Fleet reconfigurations applied (SIGHUP or admin API)."),
		integrityFailures: reg.Counter("pyroute_integrity_failures_total",
			"Backend responses failing the X-Pyserve-Digest integrity check."),
		idemReplays: reg.Counter("pyroute_idempotent_replays_total",
			"Mid-flight failures replayed under an idempotency key."),
		backendRequests: reg.CounterVec("pyroute_backend_requests_total",
			"Attempts forwarded per backend.", "backend", backends),
		backendFailures: reg.CounterVec("pyroute_backend_failures_total",
			"Transport-level attempt failures per backend.", "backend", backends),
		ejections: reg.CounterVec("pyroute_backend_ejections_total",
			"Health ejections per backend.", "backend", backends),
		readmits: reg.CounterVec("pyroute_backend_readmits_total",
			"Half-open readmissions per backend.", "backend", backends),
		breakerHolds: reg.CounterVec("pyroute_backend_breaker_holds_total",
			"Readmissions refused by the flap breaker per backend.", "backend", backends),
		upstreamLatency: reg.HistogramVec("pyroute_upstream_seconds",
			"Upstream attempt latency per backend.", "backend", backends),
	}
}

// slotFor resolves url's slot across every per-backend family, growing
// them in lockstep so one slot number indexes them all. -1 on the zero
// Metrics (the unobserved router).
func (m *Metrics) slotFor(url string) int {
	m.backendFailures.Slot(url)
	m.ejections.Slot(url)
	m.readmits.Slot(url)
	m.breakerHolds.Slot(url)
	m.upstreamLatency.Slot(url)
	return m.backendRequests.Slot(url)
}

// registerGauges wires the router's live state into scrape-time gauges.
// Called once from New; a no-op on the zero Metrics' nil registry.
func (rt *Router) registerGauges() {
	reg := rt.metrics.reg
	// The fleet is hot-reloadable, so the series set is computed fresh at
	// every scrape from the current fleet snapshot.
	reg.DynamicGaugeFunc("pyroute_backend_up",
		"Whether the backend is routable (1) or drained/ejected/half-open (0).",
		"backend", func() []telemetry.LabelValue {
			backends := rt.fleet.Load().backends
			out := make([]telemetry.LabelValue, len(backends))
			for i, b := range backends {
				v := 0.0
				if b.routable() {
					v = 1
				}
				out[i] = telemetry.LabelValue{Value: b.url, V: v}
			}
			return out
		})
	reg.GaugeFunc("pyroute_backends_routable",
		"Number of currently routable backends.", func() float64 {
			return float64(rt.routableCount())
		})
	reg.GaugeFunc("pyroute_retry_tokens",
		"Current retry-budget token level.", func() float64 {
			return float64(rt.retryTokens.Load()) / 1000
		})
}
