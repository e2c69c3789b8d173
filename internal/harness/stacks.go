package harness

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/faults"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// stacks maps each stack to its corpus size in sources (times every
// mode) and the fault kinds it can fire, the first dflt of which it
// fires when none is named. The runner, sched and serve depths walk the
// templates and 97 generated programs; the route fleet walks 24
// sources, so the templates stay a quarter of its load and the
// wall-clock soak measures the router under real work. wedge stalls a
// unit past its watchdog: at sched every wedgeEvery-th granted job
// (faults.WorkerWedge), at route the last replica, which holds every
// request and probe for wedgeFor. kill stops replica 1 for good; flap
// bounces the last replica; reload toggles replica 2 out of and back
// into the fleet by live reconfiguration. bytes puts a chaosnet proxy
// in front of every replica and stamps every request with an
// idempotency key; hedging is on exactly when bytes is off, since a
// hedge duplicates an attempt by design and muddies the exactly-once
// audit, while without keys a replica wedged for less than the ejection
// hysteresis stalls requests only a hedge can serve.
var stacks = map[string]struct {
	sources int
	kinds   []string
	dflt    int
}{
	"runner": {sources: 103},
	"sched":  {103, []string{"wedge"}, 1},
	"serve":  {sources: 103},
	"route":  {24, []string{"kill", "wedge", "flap", "bytes", "reload"}, 3},
}

// The soak shape. One value each; a test and the CLI run the same soak.
const (
	// Sched: fewer slots than submitters and slices far smaller than the
	// templates, so every long job is preempted many times, under a tight
	// deadline: the wedge horizon is twice the deadline plus the slack,
	// so an injected wedge resolves in ~1.25s. Parked time is credited
	// back, so honest jobs do not trip it, and the oracle skips a trip
	// anyway.
	schedSlots    = 2
	schedQuantum  = 2000
	schedDeadline = 500 * time.Millisecond
	wedgeSlack    = 250 * time.Millisecond
	// wedgeEvery: every 40th granted job wedges.
	wedgeEvery = 40
	// Route fleet faults fire on a ticker, cadences in ticks: the kill
	// ~400ms in, wedges and flaps throughout.
	tick        = 20 * time.Millisecond
	downEvery   = 20
	slowEvery   = 35
	flapEvery   = 50
	reloadEvery = 25
	wedgeFor    = 300 * time.Millisecond
	// stallFor outlasts the router's 2s upstream timeout, so only the
	// deadline, never an error, unsticks a stalled exchange.
	stallFor = 2500 * time.Millisecond
)

// depth is one built stack: the target the driver drives, its in-flight
// count and error budget, the registry it exports, and finish, which
// runs after the drive to stop its faults, add its counters and checks
// to the report, and release it.
type depth struct {
	target Target
	conc   int
	budget float64
	reg    *telemetry.Registry
	finish func(rep *Report)
}

// Soak builds stack (runner, sched, serve or route), drives n requests
// of the corpus seeded by seed through it while the comma-separated
// chaos kinds fire ("" fires the stack's default set, "none" nothing),
// and returns the report: the oracle holds at every depth, and each
// depth adds its own checks.
func Soak(stack, chaos string, n int, seed uint64) (*Report, error) {
	return soak(stack, chaos, n, seed, nil, nil)
}

// soak is Soak with hooks for tests: a prebuilt corpus (nil builds the
// seed's) and a wrapper around the depth's target.
func soak(stack, chaos string, n int, seed uint64, corpus []Program, wrap func(Target) Target) (*Report, error) {
	sc, ok := stacks[stack]
	if !ok {
		return nil, fmt.Errorf("harness: unknown stack %q (want runner, sched, serve or route)", stack)
	}
	on := make(map[string]bool)
	kinds := sc.kinds[:sc.dflt]
	if chaos != "" {
		kinds = strings.Split(chaos, ",")
	}
	for _, k := range kinds {
		switch {
		case k == "none":
		case !slices.Contains(sc.kinds, k):
			return nil, fmt.Errorf("harness: stack %s fires %q, not %q", stack, sc.kinds, k)
		default:
			on[k] = true
		}
	}
	if corpus == nil {
		corpus = Corpus(sc.sources, seed)
	}
	var d *depth
	var err error
	switch stack {
	case "runner":
		var t *runnerTarget
		t, err = newRunnerTarget()
		d = &depth{target: t, conc: 4, finish: func(*Report) {}}
	case "sched":
		d, corpus = schedDepth(on, seed), longShare(corpus)
	case "serve":
		d, err = serveDepth()
	case "route":
		d, err = routeDepth(on, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s stack: %w", stack, err)
	}
	t := d.target
	if wrap != nil {
		t = wrap(t)
	}
	rep := Drive(t, corpus, Config{Requests: n, Concurrency: d.conc, Seed: seed, Budget: d.budget})
	rep.Stack = stack
	rep.Fired = make(map[string]uint64)
	d.finish(rep)
	var b strings.Builder
	_ = d.reg.WritePrometheus(&b)
	rep.Exposition = b.String()
	return rep, nil
}

// longShare repeats the long loop's entries until they are a third of
// the corpus: the continuous-batching shape, where short jobs finish in
// the gaps of jobs that span many quanta.
func longShare(corpus []Program) []Program {
	var long []Program
	for _, p := range corpus {
		if p.Name == "long_loop" {
			long = append(long, p)
		}
	}
	out := slices.Clone(corpus)
	for i := 0; len(long) > 0 && 3*(len(long)+i) < len(out); i++ {
		out = append(out, long[i%len(long)])
	}
	return out
}

// schedDepth is the step-sliced scheduler in-process: eight submitters
// over two slots at a small quantum. Beyond the oracle it checks that
// the scheduler kept its slots and that preemption and mid-quantum
// reclaim happened: a soak that never preempted proved nothing.
func schedDepth(on map[string]bool, seed uint64) *depth {
	const conc = 8
	lim := limits
	lim.Deadline = schedDeadline
	var inj *faults.Injector
	if on["wedge"] {
		fc := faults.Config{Seed: seed}
		fc.EveryN[faults.WorkerWedge] = wedgeEvery
		inj = faults.New(fc)
	}
	reg := telemetry.NewRegistry()
	s := supervise.NewSched(supervise.SchedConfig{
		Slots:         schedSlots,
		QuantumSteps:  schedQuantum,
		DefaultLimits: lim,
		Faults:        inj,
		Metrics:       supervise.NewMetrics(reg),
		WedgeSlack:    wedgeSlack,
	})
	return &depth{target: schedTarget{s}, conc: conc, budget: 0.05, reg: reg, finish: func(rep *Report) {
		st := s.Stats()
		s.Close()
		rep.Sched = &st
		if inj != nil {
			rep.Fired["wedge"] = inj.Fired[faults.WorkerWedge]
		}
		if st.Workers == 0 {
			rep.violate("scheduler finished the soak with zero slots")
		}
		if st.Preempted == 0 && rep.Requests >= conc {
			rep.violate("soak ran to completion without a single preemption; the interleaving path went untested")
		}
		// A reclaim needs a lane-0 arrival behind a running lane-1 job,
		// which the first wave (every submitter at once) rarely
		// produces; a soak of ten waves always has.
		if st.Reclaimed == 0 && rep.Requests >= 10*conc {
			rep.violate("no lane-0 arrival ever reclaimed a lane-1 job's slot; the mid-quantum yield went untested")
		}
	}}
}

// serveDepth is one serve replica of the route fleet's kind, never
// faulted, every request keyed and every fourth one replayed: a replay
// must be answered from the dedup cache, and no key may execute twice.
func serveDepth() (*depth, error) {
	const conc = 4
	cb, err := newChaosBackend()
	if err != nil {
		return nil, err
	}
	h := NewHTTP("http://"+cb.addr, conc, 30*time.Second)
	h.Keys = true
	rp := &replays{Target: h}
	return &depth{target: rp, conc: conc, reg: cb.reg, finish: func(rep *Report) {
		cb.close()
		rep.MaxExecutions = cb.api.DedupStats().MaxExecutions
		if rep.MaxExecutions > 1 {
			rep.violate("serve recorded %d executions under one idempotency key", rep.MaxExecutions)
		}
		if n := int(rp.sent.Load()); rep.DedupedReplies != n {
			rep.violate("%d replays sent but %d answered from the dedup cache", n, rep.DedupedReplies)
		}
	}}, nil
}

// replays resends every fourth request under its key once its first
// reply shows the job executed, and returns the replay's reply.
type replays struct {
	Target
	sent atomic.Int64
}

func (r *replays) Run(p *Program, seq int64) Outcome {
	o := r.Target.Run(p, seq)
	if seq%4 != 0 || o.Fail != "" || o.Class == supervise.ClassShed {
		return o
	}
	r.sent.Add(1)
	return r.Target.Run(p, seq)
}

// routeDepth is a pyroute front over three real serve replicas on real
// TCP listeners (four with reload). Replica 0 stays healthy throughout,
// replica 1 is the kill target, replica 2 the reload target, and the
// last replica takes the wedges and flaps. Beyond the oracle it checks
// that the router kept answering and kept serving, ejected the killed
// replica, drove the reloads, and that byte damage on the response path
// was absorbed by the dedup caches rather than by re-execution.
func routeDepth(on map[string]bool, seed uint64) (*depth, error) {
	const conc = 6
	var closers []func()
	release := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	backs := make([]*chaosBackend, 3)
	if on["reload"] {
		backs = make([]*chaosBackend, 4)
	}
	urls := make([]string, len(backs))
	addrs := make([]string, len(backs))
	for i := range backs {
		cb, err := newChaosBackend()
		if err != nil {
			release()
			return nil, err
		}
		closers = append(closers, cb.close)
		backs[i], addrs[i], urls[i] = cb, cb.addr, "http://"+cb.addr
	}
	killTarget, chaosTarget := backs[1], backs[len(backs)-1]

	// Byte chaos: one proxy per replica, all sharing one seeded injector,
	// so the run's byte damage replays from the seed.
	bytes := on["bytes"]
	var netInj *faults.Injector
	var proxies []*chaosnet.Proxy
	netKinds := []faults.Kind{faults.NetReset, faults.NetStall, faults.NetTruncate, faults.NetCorrupt, faults.NetDelay}
	if bytes {
		fc := faults.Config{Seed: seed + 1}
		for i, rate := range []uint64{60, 400, 60, 80, 40} { // a stall burns a whole upstream timeout: keep it rare
			fc.Rate[netKinds[i]] = rate
		}
		netInj = faults.New(fc)
		var err error
		if proxies, err = chaosnet.Group(addrs, chaosnet.Config{Faults: netInj, StallFor: stallFor}); err != nil {
			release()
			return nil, err
		}
		for i, p := range proxies {
			urls[i] = p.URL()
			closers = append(closers, func() { _ = p.Close() })
		}
	}

	reg := telemetry.NewRegistry()
	readmitBudget := 3
	if bytes {
		// Byte faults hit probes too and eject healthy replicas; a tight
		// flap budget would starve the fleet for reasons unrelated to
		// what the run proves.
		readmitBudget = 100
	}
	rt, err := route.New(route.Config{
		Backends:        urls,
		UpstreamTimeout: 2 * time.Second,
		ProbeInterval:   20 * time.Millisecond,
		// A healthy node on a saturated CPU may answer readyz slowly;
		// only a wedged or dead node should blow this.
		ProbeTimeout:  250 * time.Millisecond,
		FailThreshold: 2,
		ReadmitAfter:  100 * time.Millisecond,
		ReadmitBudget: readmitBudget,
		ReadmitWindow: time.Minute,
		Hedge:         !bytes,
		Seed:          seed,
		Metrics:       route.NewMetrics(reg, urls),
	})
	if err != nil {
		release()
		return nil, err
	}
	front := httptest.NewServer(rt.Mux())
	closers = append(closers, rt.Close, front.Close)
	h := NewHTTP(front.URL, conc, 10*time.Second)
	h.Keys = bytes

	// The fault ticker, deterministic in tick count.
	fired := make(map[string]uint64)
	var tickViolations []string
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(tick)
		defer t.Stop()
		for n := uint64(1); ; n++ {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			if on["reload"] && n%reloadEvery == 0 {
				set := urls // odd reloads take replica 2 out, even ones put it back
				if fired["reload"]%2 == 0 {
					set = append(append([]string{}, urls[:2]...), urls[3:]...)
				}
				if _, _, err := rt.Reconfigure(set); err != nil {
					tickViolations = append(tickViolations, fmt.Sprintf("mid-run reconfigure failed: %v", err))
				} else {
					fired["reload"]++
				}
			}
			if on["kill"] && n%downEvery == 0 && fired["kill"] == 0 {
				_ = killTarget.set(false)
				fired["kill"]++
			}
			if on["wedge"] && n%slowEvery == 0 && chaosTarget.up() && chaosTarget.wedged.CompareAndSwap(false, true) {
				fired["wedge"]++
				time.AfterFunc(wedgeFor, func() { chaosTarget.wedged.Store(false) })
			}
			if on["flap"] && n%flapEvery == 0 {
				fired["flap"]++
				if err := chaosTarget.set(!chaosTarget.up()); err != nil {
					tickViolations = append(tickViolations, fmt.Sprintf("flap target failed to rebind %s: %v", chaosTarget.addr, err))
				}
			}
		}
	}()

	// Mid-flight kills and wedge stalls cost requests; how many scales
	// with request time times fault rate, so it depends on the machine.
	// The exact checks get no such slack.
	budget := 0.2
	if bytes {
		budget = 0.25
	}
	return &depth{target: h, conc: conc, budget: budget, reg: reg, finish: func(rep *Report) {
		close(stop)
		<-done
		// The net injector's counters are consistent only once every
		// proxy pump has drained.
		for _, p := range proxies {
			_ = p.Close()
		}
		var dedupHits uint64
		for _, cb := range backs {
			st := cb.api.DedupStats()
			dedupHits += st.Hits
			rep.MaxExecutions = max(rep.MaxExecutions, st.MaxExecutions)
		}
		release()
		rep.Violations = append(rep.Violations, tickViolations...)
		for k := range on {
			if k != "bytes" {
				rep.Fired[k] = fired[k]
			}
		}
		for _, k := range netKinds {
			if bytes {
				rep.Fired[k.String()] = netInj.Fired[k]
			}
		}
		rep.Ejections = counterTotal(reg, "pyroute_backend_ejections_total")
		rep.Readmits = counterTotal(reg, "pyroute_backend_readmits_total")

		if n := rep.Outcomes["transport_error"]; n != 0 {
			rep.violate("%d transport errors at the client: the router stopped answering", n)
		}
		if rep.Served < rep.Requests/2 {
			rep.violate("only %d/%d requests served: the fleet did not keep serving through the chaos", rep.Served, rep.Requests)
		}
		if fired["kill"] > 0 && rep.Ejections == 0 {
			rep.violate("a replica was killed but the router never ejected anything")
		}
		if on["reload"] && fired["reload"] == 0 {
			rep.violate("reload chaos armed but no reconfiguration was driven")
		}
		if rep.MaxExecutions > 1 {
			rep.violate("a backend recorded %d executions under one idempotency key", rep.MaxExecutions)
		}
		// Resets, truncations and corruptions on the response path strike
		// after the backend executed the job; the replays they force must
		// be answered from a dedup cache, not by re-running.
		if bytes {
			resp := netInj.Fired[faults.NetReset] + netInj.Fired[faults.NetTruncate] + netInj.Fired[faults.NetCorrupt]
			if resp >= 3 && dedupHits == 0 {
				rep.violate("byte chaos fired %d response-path faults but no replay was absorbed by a dedup cache", resp)
			}
		}
	}}, nil
}

// counterTotal sums every sample of a counter family in reg's
// exposition: the router's own /v1/metrics view.
func counterTotal(reg *telemetry.Registry, name string) uint64 {
	var b strings.Builder
	_ = reg.WritePrometheus(&b)
	var sum uint64
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, name+"{") || strings.HasPrefix(line, name+" ") {
			f := strings.Fields(line)
			v, _ := strconv.ParseUint(f[len(f)-1], 10, 64)
			sum += v
		}
	}
	return sum
}

// chaosBackend is one serve replica on a real TCP listener that can be
// killed (listener and every connection closed at once: in-flight work
// dies mid-response, as in a crash) and revived on the same address.
// While wedged it neither answers nor refuses: it holds each request,
// probes included, until the caller gives up, which is how the router
// must notice a wedged node.
type chaosBackend struct {
	addr   string
	pool   *supervise.Sched
	reg    *telemetry.Registry
	api    *serve.Server
	mux    http.Handler
	wedged atomic.Bool

	mu  sync.Mutex
	srv *http.Server // nil while killed
}

func newChaosBackend() (*chaosBackend, error) {
	reg := telemetry.NewRegistry()
	// The queue holds every client request and its hedge: the driver
	// does not back off, so a survivor shedding at a shallower depth
	// would turn the rest of the run into sheds.
	pool := supervise.NewPool(supervise.Config{Workers: 2, QueueDepth: 16, Metrics: supervise.NewMetrics(reg), DefaultLimits: limits})
	cb := &chaosBackend{addr: "127.0.0.1:0", pool: pool, reg: reg, api: serve.NewWithOptions(pool, reg, serve.Options{DrainTimeout: time.Second})}
	cb.mux = cb.api.Mux()
	if err := cb.set(true); err != nil {
		pool.Close()
		return nil, err
	}
	return cb, nil
}

func (cb *chaosBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if cb.wedged.Load() {
		<-r.Context().Done()
		return
	}
	cb.mux.ServeHTTP(w, r)
}

// set revives (up) or kills the node.
func (cb *chaosBackend) set(up bool) error {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	switch {
	case !up && cb.srv != nil:
		_ = cb.srv.Close()
		cb.srv = nil
	case up && cb.srv == nil:
		ln, err := net.Listen("tcp", cb.addr)
		if err != nil {
			return err
		}
		cb.addr = ln.Addr().String()
		cb.srv = &http.Server{Handler: cb}
		go cb.srv.Serve(ln)
	}
	return nil
}

func (cb *chaosBackend) up() bool {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.srv != nil
}

func (cb *chaosBackend) close() {
	_ = cb.set(false)
	cb.pool.Close()
}
