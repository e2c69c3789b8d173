package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Workload is one named traffic mix over one topology.
type Workload struct {
	Name string
	// Why says which layers the workload stresses and which it bypasses.
	Why      string
	Topology string
	// TailPct is the percentile lat_tail_ms is reported at when the run
	// has the samples for it (tailPercentile lowers it when not): p99 on
	// the workloads that complete tens of thousands of requests in a run,
	// p95 on the ones that complete 500 to 1,200.
	TailPct float64
	// WarmupPerConn is how many requests each connection sends before the
	// measured run. Warm-up is a fixed amount of work, not a fixed time,
	// so setup_s measures it.
	WarmupPerConn int
	// register lists the programs sent to /v1/programs during set-up.
	register func(c *Corpus) []*Program
	// streams builds the per-connection request sequences for one phase
	// of one run. Connection 0 and 1 are the two clients.
	streams func(c *Corpus, seed int64, phase int) [benchClients]Stream
	// OpenLoop marks connection 1 as a scheduled source with this mean
	// gap between requests (connection 0 stays closed-loop).
	OpenLoopGap time.Duration
}

// Phases of one run draw from disjoint random streams.
const (
	phaseWarmup = iota
	phaseMeasure
	phaseBaseline // the traced run's untraced comparison leg
)

// replayShare is the share of routed requests that re-send an earlier key.
const replayShare = 0.05

// replayWindow is how far back a replay reaches. It must stay well inside
// the dedup cache (4,096 keys per replica) or the recorded answer is
// evicted and the replay rightly executes again.
const replayWindow = 64

// bgLane and fgLane are the scheduler lanes of mixed-lanes.
const (
	fgLane = 0
	bgLane = 1
)

var workloads = []*Workload{
	{
		Name: "handlers-direct",
		Why: "32 registered ~1k-bytecode handlers run by programRef on one serve over Pool(2): " +
			"VM work is small, so serve/api/progstore-hit/supervise/Reset carry the round trip; VM changes show least here",
		Topology: topoDirect, TailPct: 99, WarmupPerConn: 1500,
		register: func(c *Corpus) []*Program { return c.Handlers },
		streams: func(c *Corpus, seed int64, phase int) [benchClients]Stream {
			return eachConn(func(conn int) Stream {
				return &cycleStream{progs: c.Handlers, byRef: true, rng: connRand(seed, phase, conn)}
			})
		},
	},
	{
		Name: "handlers-routed",
		Why: "the same traffic through route.New over 2 replicas x 1 worker, unique idempotencyKey + digest, 5% replays: " +
			"only here do route pick/forward, hash affinity, digest verify and the dedup cache work",
		Topology: topoRouted, TailPct: 99, WarmupPerConn: 1000,
		register: func(c *Corpus) []*Program { return c.Handlers },
		streams: func(c *Corpus, seed int64, phase int) [benchClients]Stream {
			return eachConn(func(conn int) Stream {
				return &keyedStream{
					cycleStream: cycleStream{progs: c.Handlers, byRef: true, rng: connRand(seed, phase, conn)},
					keyPrefix:   fmt.Sprintf("k%d-%d-%d-", seed, phase, conn),
				}
			})
		},
	},
	{
		Name: "kernels-inline",
		Why: "12 pinned pybench kernels (3-30 ms) sent inline to one serve over Pool(2): " +
			"at least 90% of the round trip is interp with emission unarmed, so VM/GC/JIT work shows and serving-layer work must not",
		Topology: topoDirect, TailPct: 95, WarmupPerConn: 36,
		streams: func(c *Corpus, seed int64, phase int) [benchClients]Stream {
			return eachConn(func(conn int) Stream {
				return &cycleStream{progs: c.Kernels, rng: connRand(seed, phase, conn)}
			})
		},
	},
	{
		Name: "kernels-attributed",
		Why: "the same kernels with breakdown:true: the same emit layer armed and feeding uarch/core, " +
			"so a gain for unarmed emission that costs the paper-reproduction path shows",
		Topology: topoDirect, TailPct: 95, WarmupPerConn: 24,
		streams: func(c *Corpus, seed int64, phase int) [benchClients]Stream {
			return eachConn(func(conn int) Stream {
				return &cycleStream{progs: c.Kernels, breakdown: true, rng: connRand(seed, phase, conn)}
			})
		},
	},
	{
		Name: "unique-inline",
		Why: "handler templates with a per-request salt, inline, so every source is new: progstore miss + pycompile + " +
			"cold ICs + eviction at the 1,024 cap; same VM work as handlers-direct, opposite cache behaviour",
		Topology: topoDirect, TailPct: 99, WarmupPerConn: 800,
		streams: func(c *Corpus, seed int64, phase int) [benchClients]Stream {
			return eachConn(func(conn int) Stream {
				return &saltStream{templates: c.Templates, rng: connRand(seed, phase, conn),
					base: saltBase(seed, phase, conn)}
			})
		},
	},
	{
		Name: "mixed-lanes",
		Why: "Sched(1 slot, 2 lanes): ~1M-bytecode jobs back to back on lane 1, handlers on lane 0 open-loop " +
			"(Poisson, mean gap 20 ms) timed from due time: the only workload with an admission queue and preemption",
		Topology: topoSched, TailPct: 95, WarmupPerConn: 2,
		OpenLoopGap: 20 * time.Millisecond,
		register:    func(c *Corpus) []*Program { return append(append([]*Program(nil), c.Handlers...), c.Bg...) },
		streams: func(c *Corpus, seed int64, phase int) [benchClients]Stream {
			return [benchClients]Stream{
				&cycleStream{progs: c.Bg, byRef: true, lane: bgLane, rng: connRand(seed, phase, 0)},
				&cycleStream{progs: c.Handlers, byRef: true, lane: fgLane, rng: connRand(seed, phase, 1)},
			}
		},
	},
}

func workloadByName(name string) *Workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func eachConn(f func(conn int) Stream) [benchClients]Stream {
	var out [benchClients]Stream
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// connRand is the random stream of one connection in one phase: a
// function of the run's seed and nothing else.
func connRand(seed int64, phase, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*101 + int64(conn)))
}

// saltBase spaces the salts of (seed, phase, connection) apart so no two
// requests of one process share a source. Salts stay below 2^31.
func saltBase(seed int64, phase, conn int) int {
	return int(seed%1000)*2_000_000 + (phase*benchClients+conn)*300_000 + 100_000
}

// cycleStream walks its programs in a freshly shuffled order, pass after
// pass: the mix is exactly even over every whole pass (so throughput does
// not depend on which programs a seed happened to draw) and the order is
// the seed's.
type cycleStream struct {
	progs     []*Program
	byRef     bool
	breakdown bool
	lane      int
	rng       *rand.Rand
	order     []int
}

func (s *cycleStream) pick(i int) *Program {
	n := len(s.progs)
	if i%n == 0 {
		s.order = s.rng.Perm(n)
	}
	return s.progs[s.order[i%n]]
}

func (s *cycleStream) next(i int) *Request {
	return &Request{Prog: s.pick(i), ByRef: s.byRef, Breakdown: s.breakdown, Lane: s.lane}
}

func (s *cycleStream) done(int, *Request, *Answer) {}

func (s *cycleStream) distinct() int { return len(s.progs) }

// keyedStream is cycleStream with a unique idempotency key per request,
// and now and then a replay of a key this connection already has an
// answer for.
type keyedStream struct {
	cycleStream
	keyPrefix string
	// answered holds the last replayWindow correctly answered requests.
	answered []*Request
	fresh    int // fresh (non-replay) requests issued, the cycle position
}

func (s *keyedStream) next(i int) *Request {
	if len(s.answered) > 0 && s.rng.Float64() < replayShare {
		orig := s.answered[s.rng.Intn(len(s.answered))]
		return &Request{Prog: orig.Prog, ByRef: true, IdemKey: orig.IdemKey, Replay: true}
	}
	rq := &Request{Prog: s.pick(s.fresh), ByRef: true, IdemKey: s.keyPrefix + strconv.Itoa(i)}
	s.fresh++
	return rq
}

func (s *keyedStream) done(_ int, rq *Request, ans *Answer) {
	if rq.Replay || ans.Outcome != outOK {
		return
	}
	if len(s.answered) == replayWindow {
		copy(s.answered, s.answered[1:])
		s.answered = s.answered[:replayWindow-1]
	}
	s.answered = append(s.answered, rq)
}

// saltStream instantiates the handler templates with a salt no earlier
// request used; the expected stdout comes from the template's oracle.
type saltStream struct {
	templates []*Template
	rng       *rand.Rand
	base      int
	order     []int
}

func (s *saltStream) next(i int) *Request {
	n := len(s.templates)
	if i%n == 0 {
		s.order = s.rng.Perm(n)
	}
	t := s.templates[s.order[i%n]]
	salt := s.base + i
	return &Request{Prog: &Program{
		Name:  "templates/" + t.Name,
		Src:   t.Instantiate(salt),
		Want:  t.Oracle(salt),
		Steps: t.Steps,
	}}
}

func (s *saltStream) done(int, *Request, *Answer) {}

func (s *saltStream) distinct() int { return len(s.templates) }

// poissonSchedule returns due times (ns after the start) of Poisson
// arrivals with the given mean gap over dur, conditioned on their count
// being exactly dur/meanGap. Given its count, a Poisson process on an
// interval is that many independent uniform times, so the arrivals keep
// their burstiness; fixing the count keeps the offered rate, which an
// open loop's throughput equals, from varying with the seed (±4.5% at 500
// arrivals).
func poissonSchedule(rng *rand.Rand, meanGap, dur time.Duration) []int64 {
	out := make([]int64, int(dur/meanGap))
	for i := range out {
		out[i] = rng.Int63n(int64(dur))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Phase is the merged outcome of one phase of traffic.
type Phase struct {
	// Conns are the per-connection tallies, connection 0 first.
	Conns [benchClients]*Tally
}

// drive runs one phase of w's traffic through top. A closed-loop
// connection runs for perConn requests when perConn > 0, else for dur.
// On an open-loop workload connection 1 follows its schedule for dur
// (or, in warm-up, for as long as the closed side takes).
func (w *Workload) drive(d *Driver, c *Corpus, seed int64, phase, perConn int, dur time.Duration) Phase {
	streams := w.streams(c, seed, phase)
	var deadline time.Time
	more := func(i int) bool { return i < perConn }
	if perConn <= 0 {
		deadline = time.Now().Add(dur)
		more = func(int) bool { return time.Now().Before(deadline) }
	}
	var ph Phase
	var wg sync.WaitGroup
	for conn := 0; conn < benchClients; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			if conn == 1 && w.OpenLoopGap > 0 {
				span := dur
				if perConn > 0 {
					// Warm-up: enough foreground traffic to span the
					// background connection's jobs.
					span = time.Duration(perConn) * 300 * time.Millisecond
				}
				sched := poissonSchedule(connRand(seed, phase, benchClients), w.OpenLoopGap, span)
				ph.Conns[conn] = d.openLoop(conn, streams[conn], sched)
				return
			}
			ph.Conns[conn] = d.closedLoop(conn, streams[conn], more)
		}(conn)
	}
	wg.Wait()
	return ph
}

// setUp builds w's topology, registers its programs and warms it up: all
// of what happens before the first measured request.
func (w *Workload) setUp(c *Corpus, seed int64, tr *Trace) (*Topology, error) {
	top, err := BuildTopology(w.Topology, tr)
	if err != nil {
		return nil, err
	}
	if w.register != nil {
		if err := top.Register(w.register(c)); err != nil {
			top.Close()
			return nil, err
		}
	}
	ph := w.drive(newDriver(top, "w"), c, seed, phaseWarmup, w.WarmupPerConn, 0)
	for _, t := range ph.Conns {
		if t.Failed() > 0 {
			top.Close()
			return nil, fmt.Errorf("%s: warm-up: %d of %d requests failed: %v", w.Name, t.Failed(), t.Attempted, t.Outcomes)
		}
	}
	return top, nil
}
