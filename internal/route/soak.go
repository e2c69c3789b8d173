package route

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// soak.go is the router chaos soak: a real pyroute front over real
// in-process pyserve replicas on real TCP listeners, with the
// internal/faults injector killing, wedging, and flapping replicas
// mid-run while a verified load corpus (fresh-runner expectations
// stamped per program) flows through the front door.
//
// The oracle, asserted over the whole run:
//
//   - Zero wrong answers: every 200 matches its reference output
//     bit-for-bit. A fault may cost a request, never corrupt one.
//   - Zero transport errors at the client: the router always answers,
//     whatever the fleet looks like.
//   - Failures stay within the declared error budget: sheds and routing
//     rejections (Retry-After semantics, job never ran) are budgeted;
//     upstream errors from mid-flight kills are bounded by
//     AllowedFailureRatio.
//   - Service continues: a majority of requests still succeed with one
//     replica killed for good and another flapping.

// SoakConfig parameterizes the router chaos soak.
type SoakConfig struct {
	Seed uint64
	// Jobs is the total request count (default 300).
	Jobs int
	// Backends is the replica count (default 3; minimum 2).
	Backends int
	// Workers per replica (default 2).
	Workers int
	// Concurrency is the load generator's in-flight requests (default 6).
	Concurrency int

	// Fault cadence, in injector ticks (one tick every TickEvery,
	// default 20ms). Zero disables a kind.
	//   DownEveryN: kill replica 1 for good (fires once).
	//   SlowEveryN: wedge the last replica for SlowFor (requests and
	//     probes stall instead of failing fast).
	//   FlapEveryN: bounce the last replica down/up.
	DownEveryN uint64
	SlowEveryN uint64
	FlapEveryN uint64
	TickEvery  time.Duration
	// SlowFor is the wedge duration (default 300ms).
	SlowFor time.Duration

	// ByteChaos interposes a chaosnet proxy in front of every replica
	// and drives the byte-level fault kinds below from one shared seeded
	// injector: resets, half-open stalls, truncation, corruption, delay.
	ByteChaos bool
	// Per-chunk firing rates for byte chaos (fire with probability 1/N
	// per forwarded chunk; zero disables a kind).
	NetResetRate, NetStallRate, NetTruncateRate, NetCorruptRate, NetDelayRate uint64
	// NetStallFor bounds one half-open stall (default 2.5s — above the
	// soak router's 2s upstream timeout, so only the deadline, never an
	// error, unsticks the victim).
	NetStallFor time.Duration

	// ReloadEveryN, in ticks, toggles one replica out of and back into
	// the fleet via Reconfigure — zero-downtime reconfiguration under
	// chaos (zero disables; forces Backends >= 4 so the reload target is
	// distinct from the floor, kill, and chaos replicas).
	ReloadEveryN uint64

	// IdempotencyKeys stamps every request with a unique key. This
	// authorizes the router to replay mid-flight failures and arms the
	// exactly-once oracle: zero duplicate executions, per-key execution
	// stamps <= 1, replays absorbed by the backends' dedup caches.
	IdempotencyKeys bool

	// AllowedFailureRatio is the declared error budget for unbudgeted
	// failures — mid-flight kills and wedge stalls land here (default
	// 0.2). The casualty count scales with request duration times fault
	// rate, so it is machine-speed-dependent: on a slow or oversubscribed
	// host a larger fraction of requests is in flight whenever a fault
	// fires. The exact invariants (zero wrong answers, zero transport
	// errors, service continues) do not get this slack.
	AllowedFailureRatio float64
	// Hedge enables tail-latency hedging during the soak.
	Hedge bool
	// Logw receives router logs (nil disables).
	Logw io.Writer
}

// SoakResult is the soak verdict.
type SoakResult struct {
	Report     *load.Report
	Violations []string
	// Faults is the injector's per-kind site/fired summary; NetFaults is
	// the byte-chaos injector's ("" when ByteChaos is off).
	Faults    string
	NetFaults string
	// Killed/Wedges/Flaps count the fleet events actually driven;
	// Reloads counts mid-run fleet reconfigurations.
	Killed, Wedges, Flaps, Reloads int
	// Ejections/Readmits are the router's counters summed over backends.
	Ejections, Readmits uint64
	// DedupHits sums replays absorbed by the backends' dedup caches;
	// MaxExecutions is the worst per-key execution stamp observed across
	// the fleet (exactly-once holds iff <= 1).
	DedupHits     uint64
	MaxExecutions int
}

// Ok reports whether the soak finished without an oracle violation.
func (r *SoakResult) Ok() bool { return len(r.Violations) == 0 }

// soakLimits are the per-job budgets: the deterministic step budget
// decides outcomes; the deadline is a generous backstop.
var soakLimits = interp.Limits{
	MaxSteps:       2_000_000,
	MaxHeapBytes:   64 << 20,
	Deadline:       2 * time.Second,
	MaxOutputBytes: 1 << 20,
}

// chaosBackend is one pyserve replica on a real, killable TCP listener.
// Stop hard-closes the listener and every connection (in-flight work
// dies mid-response, as a crash would); Start rebinds the same address.
type chaosBackend struct {
	addr string
	pool *supervise.Sched
	api  *serve.Server // for DedupStats in the exactly-once oracle

	handler http.Handler
	wedged  atomic.Bool

	mu  sync.Mutex
	srv *http.Server
	up  bool
}

func newChaosBackend(workers int) (*chaosBackend, error) {
	reg := telemetry.NewRegistry()
	pool := supervise.NewPool(supervise.Config{
		Workers:       workers,
		Metrics:       supervise.NewMetrics(reg),
		DefaultLimits: soakLimits,
	})
	srv := serve.NewWithOptions(pool, reg, serve.Options{DrainTimeout: time.Second})
	cb := &chaosBackend{pool: pool, api: srv}
	inner := srv.Mux()
	cb.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cb.wedged.Load() {
			// Wedge: neither answer nor refuse — hold the connection
			// until the caller gives up. Probes time out too, which is
			// exactly how the router must notice a wedged node.
			<-r.Context().Done()
			return
		}
		inner.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pool.Close()
		return nil, err
	}
	cb.addr = ln.Addr().String()
	cb.serveOn(ln)
	return cb, nil
}

func (cb *chaosBackend) serveOn(ln net.Listener) {
	srv := &http.Server{Handler: cb.handler}
	cb.mu.Lock()
	cb.srv = srv
	cb.up = true
	cb.mu.Unlock()
	go srv.Serve(ln)
}

// Stop kills the node: listener and all connections close immediately.
func (cb *chaosBackend) Stop() {
	cb.mu.Lock()
	srv := cb.srv
	cb.srv = nil
	cb.up = false
	cb.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// Start revives the node on its original address.
func (cb *chaosBackend) Start() error {
	cb.mu.Lock()
	if cb.up {
		cb.mu.Unlock()
		return nil
	}
	cb.mu.Unlock()
	ln, err := net.Listen("tcp", cb.addr)
	if err != nil {
		return err
	}
	cb.serveOn(ln)
	return nil
}

func (cb *chaosBackend) Up() bool {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.up
}

func (cb *chaosBackend) Close() {
	cb.Stop()
	cb.pool.Close()
}

// Soak runs the router chaos soak.
func Soak(cfg SoakConfig) *SoakResult {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 300
	}
	if cfg.Backends < 2 {
		cfg.Backends = 3
	}
	if cfg.ReloadEveryN > 0 && cfg.Backends < 4 {
		// The reload target must be distinct from the healthy floor
		// (replica 0), the kill target (1) and the chaos target (last).
		cfg.Backends = 4
	}
	if cfg.NetStallFor <= 0 {
		cfg.NetStallFor = 2500 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 6
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 20 * time.Millisecond
	}
	if cfg.SlowFor <= 0 {
		cfg.SlowFor = 300 * time.Millisecond
	}
	if cfg.AllowedFailureRatio <= 0 {
		cfg.AllowedFailureRatio = 0.2
	}
	res := &SoakResult{}
	violate := func(format string, args ...interface{}) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// Fleet: replica 0 stays healthy throughout (the soak's floor),
	// replica 1 is the kill target, the last replica takes the wedge
	// and flap faults.
	backs := make([]*chaosBackend, cfg.Backends)
	urls := make([]string, cfg.Backends)
	for i := range backs {
		cb, err := newChaosBackend(cfg.Workers)
		if err != nil {
			violate("backend %d failed to start: %v", i, err)
			return res
		}
		defer cb.Close()
		backs[i] = cb
		urls[i] = "http://" + cb.addr
	}
	killTarget, chaosTarget := backs[1], backs[len(backs)-1]

	// Byte chaos: one proxy per replica, all sharing one seeded injector
	// (consults serialized by the proxy group), so the whole run's byte
	// damage is replayable from the seed. The router then talks to the
	// proxies; the backends themselves stay clean.
	routerURLs := make([]string, len(urls))
	copy(routerURLs, urls)
	var netInj *faults.Injector
	var proxies []*chaosnet.Proxy
	if cfg.ByteChaos {
		njCfg := faults.Config{Seed: cfg.Seed + 1}
		njCfg.Rate[faults.NetReset] = cfg.NetResetRate
		njCfg.Rate[faults.NetStall] = cfg.NetStallRate
		njCfg.Rate[faults.NetTruncate] = cfg.NetTruncateRate
		njCfg.Rate[faults.NetCorrupt] = cfg.NetCorruptRate
		njCfg.Rate[faults.NetDelay] = cfg.NetDelayRate
		netInj = faults.New(njCfg)
		targets := make([]string, len(backs))
		for i, cb := range backs {
			targets[i] = cb.addr
		}
		var perr error
		proxies, perr = chaosnet.Group(targets, chaosnet.Config{
			Faults: netInj, StallFor: cfg.NetStallFor,
		})
		if perr != nil {
			violate("chaos proxies failed to start: %v", perr)
			return res
		}
		defer func() {
			for _, p := range proxies {
				_ = p.Close()
			}
		}()
		for i, p := range proxies {
			routerURLs[i] = p.URL()
		}
	}

	reg := telemetry.NewRegistry()
	metrics := NewMetrics(reg, routerURLs)
	readmitBudget := 3
	if cfg.ByteChaos {
		// Random byte faults hit probes too, so ejections happen to
		// perfectly healthy replicas; a tight flap budget would starve the
		// fleet for reasons unrelated to what this run proves.
		readmitBudget = 100
	}
	rt, err := New(Config{
		Backends:        routerURLs,
		UpstreamTimeout: 2 * time.Second,
		ProbeInterval:   20 * time.Millisecond,
		// Generous probe timeout: a healthy node on a saturated CPU may
		// answer readyz slowly; only a truly wedged or dead node should
		// blow this.
		ProbeTimeout:  250 * time.Millisecond,
		FailThreshold: 2,
		ReadmitAfter:  100 * time.Millisecond,
		ReadmitBudget: readmitBudget,
		ReadmitWindow: time.Minute,
		Hedge:         cfg.Hedge,
		Seed:          cfg.Seed,
		Metrics:       metrics,
		Logw:          cfg.Logw,
	})
	if err != nil {
		violate("router failed to start: %v", err)
		return res
	}
	defer rt.Close()
	front := &http.Server{Handler: rt.Mux()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		violate("front listener: %v", err)
		return res
	}
	go front.Serve(ln)
	defer front.Close()

	// Fault driver: one injector tick per TickEvery until the load run
	// finishes. Deterministic in tick count via EveryN cadences.
	injCfg := faults.Config{Seed: cfg.Seed}
	injCfg.EveryN[faults.BackendDown] = cfg.DownEveryN
	injCfg.EveryN[faults.BackendSlow] = cfg.SlowEveryN
	injCfg.EveryN[faults.BackendFlap] = cfg.FlapEveryN
	inj := faults.New(injCfg)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(cfg.TickEvery)
		defer tick.Stop()
		var tickN uint64
		reloadedOut := false
		const reloadIdx = 2 // distinct from floor (0), kill (1), chaos (last)
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			tickN++
			if cfg.ReloadEveryN != 0 && tickN%cfg.ReloadEveryN == 0 {
				// Zero-downtime reconfiguration under fire: toggle the
				// reload target out of and back into the fleet. In-flight
				// requests on the removed node drain; its keyspace moves
				// and moves back; everything else stays pinned.
				set := routerURLs
				if !reloadedOut {
					set = make([]string, 0, len(routerURLs)-1)
					for i, u := range routerURLs {
						if i != reloadIdx {
							set = append(set, u)
						}
					}
				}
				if _, _, rerr := rt.Reconfigure(set); rerr != nil {
					violate("mid-run reconfigure failed: %v", rerr)
				} else {
					res.Reloads++
					reloadedOut = !reloadedOut
				}
			}
			if inj.Should(faults.BackendDown) && res.Killed == 0 {
				killTarget.Stop() // for good: no revival
				res.Killed++
			}
			if inj.Should(faults.BackendSlow) && chaosTarget.Up() {
				if chaosTarget.wedged.CompareAndSwap(false, true) {
					res.Wedges++
					time.AfterFunc(cfg.SlowFor, func() { chaosTarget.wedged.Store(false) })
				}
			}
			if inj.Should(faults.BackendFlap) {
				res.Flaps++
				if chaosTarget.Up() {
					chaosTarget.Stop()
				} else if err := chaosTarget.Start(); err != nil {
					violate("flap target failed to rebind %s: %v", chaosTarget.addr, err)
				}
			}
		}
	}()

	corpus := load.MixedCorpus(12, cfg.Seed, soakLimits)
	rep, err := load.Run(load.Config{
		Target:              "http://" + ln.Addr().String(),
		Corpus:              corpus,
		Concurrency:         cfg.Concurrency,
		Requests:            cfg.Jobs,
		Timeout:             10 * time.Second,
		Seed:                cfg.Seed,
		AllowedFailureRatio: cfg.AllowedFailureRatio,
		IdempotencyKeys:     cfg.IdempotencyKeys,
	})
	close(stop)
	<-done
	// Close the proxies before reading the net injector: its counters are
	// only consistent once every pump goroutine has drained.
	for _, p := range proxies {
		_ = p.Close()
	}
	if err != nil {
		violate("load run failed: %v", err)
		return res
	}
	res.Report = rep
	res.Faults = inj.String()
	if netInj != nil {
		res.NetFaults = netInj.String()
	}
	for i := range routerURLs {
		res.Ejections += metrics.ejections.Value(i)
		res.Readmits += metrics.readmits.Value(i)
	}
	for _, cb := range backs {
		st := cb.api.DedupStats()
		res.DedupHits += st.Hits
		if st.MaxExecutions > res.MaxExecutions {
			res.MaxExecutions = st.MaxExecutions
		}
	}

	// The oracle.
	if rep.WrongAnswers != 0 {
		violate("%d wrong answers: a fault corrupted a served result", rep.WrongAnswers)
	}
	if n := rep.Outcomes["transport_error"]; n != 0 {
		violate("%d transport errors at the client: the router stopped answering", n)
	}
	if !rep.WithinBudget {
		violate("unbudgeted failure ratio %.3f exceeds the declared budget %.3f (outcomes %v)",
			rep.FailureRatio, rep.AllowedFailureRatio, rep.Outcomes)
	}
	served := rep.Outcomes["ok"] + rep.Outcomes["python_error"]
	if served < cfg.Jobs/2 {
		violate("only %d/%d requests served: the fleet did not keep serving through the chaos", served, cfg.Jobs)
	}
	if res.Killed > 0 && res.Ejections == 0 {
		violate("a replica was killed but the router never ejected anything")
	}
	if cfg.ReloadEveryN != 0 && res.Reloads == 0 {
		violate("reload cadence configured but no reconfiguration was driven")
	}
	if cfg.IdempotencyKeys {
		// The exactly-once oracle, from both ends: the client never saw an
		// executions stamp above 1, and no backend ever recorded a key
		// executing twice on its own pool.
		if rep.DuplicateExecutions != 0 {
			violate("%d responses carried an executions stamp > 1: a replay re-ran a job", rep.DuplicateExecutions)
		}
		if res.MaxExecutions > 1 {
			violate("a backend recorded %d executions under one idempotency key", res.MaxExecutions)
		}
	}
	if cfg.ByteChaos && cfg.IdempotencyKeys && netInj != nil {
		// Resets, truncations, and corruptions on the response path all
		// strike after the backend executed the job; the replays they force
		// must be answered from the dedup cache, not by re-running.
		respFaults := netInj.Fired[faults.NetReset] + netInj.Fired[faults.NetTruncate] +
			netInj.Fired[faults.NetCorrupt]
		if respFaults >= 3 && res.DedupHits == 0 {
			violate("byte chaos fired %d response-path faults but no replay was absorbed by a dedup cache", respFaults)
		}
	}
	return res
}
